package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// perLayer lists every per-layer metric in report order. A traced run
// of any workload reports all of them; a layer the workload does not
// exercise reads 0 with a base of 0.
var perLayer = []struct{ name, unit string }{
	{"synth.app_gen_us", "us"},
	{"stream.queue_wait_us", "us"},
	{"core.checksafe_us", "us"},
	{"core.checksafe_mean_us", "us"},
	{"stream.post_us", "us"},
	{"stream.journal_fsyncs", "count"},
	{"stream.backpressure_stalls", "count"},
	{"stream.queue_high_water", "count"},
	{"htmltext.extract_us", "us"},
	{"policy.analyze_us", "us"},
	{"desc.analyze_us", "us"},
	{"static.collect_us", "us"},
	{"taint.leaks_us", "us"},
	{"libdetect.detect_us", "us"},
	{"core.detect_us", "us"},
	{"static.collect_drift", "ratio"},
	{"core.serial_apps_per_s", "apps/s"},
	{"report.document_us", "us"},
	{"core.lib_cache_hit_ratio", "ratio"},
	{"esa.interpret_hit_ratio", "ratio"},
	{"dist.lease_rtt_us_p50", "us"},
	{"dist.lease_rtt_us_p99", "us"},
	{"dist.lease_rtt_count", "count"},
	{"dist.report_rtt_us_p50", "us"},
	{"dist.report_rtt_us_p99", "us"},
	{"dist.report_rtt_count", "count"},
	{"dist.renew_rtt_us_p50", "us"},
	{"dist.renew_rtt_us_p99", "us"},
	{"dist.renew_rtt_count", "count"},
	{"dist.shard_rtt_us_p50", "us"},
	{"dist.shard_rtt_us_p99", "us"},
	{"dist.shard_rtt_count", "count"},
	{"dist.lease_server_us", "us"},
	{"dist.report_server_us", "us"},
	{"dist.analyze_us", "us"},
	{"dist.wire_bytes_per_app", "bytes"},
	{"dist.shard_requests_per_app", "count"},
	{"dist.empty_leases", "count"},
	{"dist.remote_hit_ratio", "ratio"},
	{"dist.useful_lease_ratio", "ratio"},
	{"serve.decode_us", "us"},
	{"serve.request_bytes_per_app", "bytes"},
	{"serve.response_bytes_per_app", "bytes"},
	{"serve.rejected", "count"},
	{"longi.check_version_hit_us", "us"},
	{"longi.check_version_miss_us", "us"},
	{"longi.artifact_hit_ratio", "ratio"},
	{"history_p50_ms", "ms"},
	{"history_p95_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"trace.apps_per_s", "apps/s"},
}

// completeLayer adds the run-level figures to a workload's per-layer
// metrics and returns the full perLayer list in order. A measured name
// missing from perLayer, or measured in another unit, is a bug.
func completeLayer(ms []metric, res *runResult) []metric {
	ms = append(ms, metric{"fail_ratio", "ratio", Ratio{res.failed, res.attempted}.Stat()})
	for _, m := range res.e2e {
		if m.Name == "apps_per_s" {
			ms = append(ms, metric{"trace.apps_per_s", m.Unit, m.Stat})
		}
	}
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, pl := range perLayer {
		m, ok := byName[pl.name]
		if ok && m.Unit != pl.unit {
			panic(fmt.Sprintf("per-layer metric %s measured in %s, declared %s", pl.name, m.Unit, pl.unit))
		}
		delete(byName, pl.name)
		out = append(out, metric{pl.name, pl.unit, m.Stat})
	}
	for name := range byName {
		panic("undeclared per-layer metric " + name)
	}
	return out
}

// writeTrace writes the traced run's spans under the work directory.
func writeTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}
