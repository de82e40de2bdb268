// Command e2ebench is the repository's end-to-end benchmark. It drives
// PPChecker only through its public Go API, the way users run it:
//
//	stream-firehose  stream.Run over distinct firehose apps with a
//	                 durable journal (the ppstream -firehose path)
//	dist-loopback    a coordinator and two in-process workers over
//	                 127.0.0.1 HTTP (the ppcoord + ppstream -worker path)
//	serve-mixed      ppserve's /check-history and /check-batch driven by
//	                 a closed loop of two HTTP clients
//
// Each run measures one workload for --seconds, checks the program's
// outputs against a serial single-process reference, and prints one
// JSON object as the last line of standard output. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it also wraps the
// public seams (sources, item closures, result callbacks, HTTP
// transports and handlers) and replays the app sequence stage by stage
// to report per-layer metrics. A capture line with sample counts, bases
// and the run settings precedes the result line.
//
// Run it from the repository root with run.sh, which builds it first:
//
//	bash e2ebench/run.sh --workload stream-firehose --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
}

// metric is one named figure with its unit and sample count or base.
type metric struct {
	Name string
	Unit string
	Stat
}

// runResult is what a workload run hands back for reporting.
type runResult struct {
	attempted, failed int64
	setup             time.Duration // this process's own set-up
	e2e               []metric      // reported with --trace 0
	layer             []metric      // reported with --trace 1
	info              map[string]any
	check             outputCheck
}

// workload is one benchmark workload: setup measures set-up alone (in
// a fresh child process), run performs a full measured run.
type workload struct {
	setup func(cfg config) (time.Duration, error)
	run   func(cfg config) (*runResult, error)
}

var workloads = map[string]workload{
	"stream-firehose": {setup: setupStream, run: runStream},
	"dist-loopback":   {setup: setupDist, run: runDist},
	"serve-mixed":     {setup: setupServe, run: runServe},
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"apps_per_s", "apps/s"},
	{"cpu_us_per_app", "us"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
	{"batch_p50_ms", "ms"},
	{"batch_p95_ms", "ms"},
}

// checkEndToEnd returns ms in endToEnd order, or an error if the run
// measured a different set.
func checkEndToEnd(ms []metric) ([]metric, error) {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if len(byName) != len(endToEnd) {
		return nil, fmt.Errorf("run measured %d end-to-end metrics, want %d", len(byName), len(endToEnd))
	}
	out := make([]metric, 0, len(endToEnd))
	for _, e := range endToEnd {
		m, ok := byName[e.name]
		if !ok || m.Unit != e.unit {
			return nil, fmt.Errorf("end-to-end metric %s (%s) not measured", e.name, e.unit)
		}
		out = append(out, m)
	}
	return out, nil
}

// setupChildren is how many fresh processes measure set-up before and
// again after the timed phase. Set-up includes process-wide one-time
// initialization (the pattern matcher, the arena pool), so it can only
// be repeated in new processes; the median of these plus the run's own
// is reported. Splitting them around the run keeps one busy moment on
// the host from moving the median.
const setupChildren = 8

func main() {
	var cfg config
	var traceFlag int
	var setupChild bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name: stream-firehose, dist-loopback or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for journals, temp files and traces")
	flag.BoolVar(&setupChild, "setup-child", false, "measure set-up only and print it in seconds")
	flag.Parse()
	cfg.trace = traceFlag == 1

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload (stream-firehose|dist-loopback|serve-mixed), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "tmp"), 0o755); err != nil {
		fatal(err)
	}
	if setupChild {
		d, err := w.setup(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d.Seconds())
		return
	}

	setups, err := childSetups(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := w.run(cfg)
	if err != nil {
		fatal(err)
	}
	after, err := childSetups(cfg)
	if err != nil {
		fatal(err)
	}
	setups = append(append(setups, after...), res.setup.Seconds())
	setup := metric{"setup_s", "s", Stat{Value: median(setups), N: int64(len(setups))}}
	if res.e2e, err = checkEndToEnd(append(res.e2e, setup)); err != nil {
		fatal(err)
	}

	checkErr := res.check.err()
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: OUTPUT MISMATCH\n"+checkErr.Error())
	}
	reported := res.e2e
	if cfg.trace {
		reported = res.layer
	}
	if err := printCapture(cfg, res, checkErr); err != nil {
		fatal(err)
	}
	printResult(checkErr == nil, res.attempted, res.failed, reported)
	if checkErr != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// childSetups measures set-up in fresh processes of this binary.
func childSetups(cfg config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupChildren; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--workdir", cfg.workDir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// jsonMetric is the result line's per-metric shape.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line: exactly the keys correct,
// attempted, failed and metrics.
func printResult(correct bool, attempted, failed int64, ms []metric) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, map[string]jsonMetric{}}
	for _, m := range ms {
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// printCapture prints the run's full record on one line: settings,
// every metric with its unit and sample count (or base), and extra
// figures. Captures committed under captures/ are these lines.
func printCapture(cfg config, res *runResult, checkErr error) error {
	type capMetric struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int64   `json:"samples"`
	}
	conv := func(ms []metric) map[string]capMetric {
		out := map[string]capMetric{}
		for _, m := range ms {
			out[m.Name] = capMetric{m.Value, m.Unit, m.N}
		}
		return out
	}
	c := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"attempted":  res.attempted,
		"failed":     res.failed,
		"fail_ratio": Ratio{res.failed, res.attempted}.Stat().Value,
		"checked":    res.check.compared,
		"end_to_end": conv(res.e2e),
		"info":       res.info,
	}
	if cfg.trace {
		c["per_layer"] = conv(res.layer)
	}
	if checkErr != nil {
		c["mismatch"] = checkErr.Error()
	}
	b, err := json.Marshal(map[string]any{"capture": c})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// commit names the source revision under test, when the checkout is a
// git work tree; benchmark checkouts without one read "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after two forced collections (the first
// clears sync.Pool primaries into victims, the second drops them).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// throughput builds the metrics every workload shares.
func throughput(apps int64, elapsed, cpu time.Duration) []metric {
	return []metric{
		{"apps_per_s", "apps/s", Stat{Value: float64(apps) / elapsed.Seconds(), N: apps}},
		{"cpu_us_per_app", "us", Stat{Value: float64(cpu.Microseconds()) / float64(max(apps, 1)), N: apps}},
	}
}

// latencyMetrics reports p50 and p95 of s under prefix, in ms.
func latencyMetrics(prefix string, s *Samples) ([]metric, error) {
	var ms []metric
	for _, p := range []float64{50, 95} {
		st, err := s.Percentile(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prefix, err)
		}
		ms = append(ms, metric{fmt.Sprintf("%s_p%g_ms", prefix, p), "ms", st})
	}
	return ms, nil
}
