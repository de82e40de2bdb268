package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"ppchecker/internal/dex"
	"ppchecker/internal/longi"
	"ppchecker/internal/serve"
	"ppchecker/internal/synth"
)

// historyRequest converts a generated versioned app into its wire form.
func historyRequest(t testing.TB, va synth.VersionedApp) serve.HistoryRequest {
	t.Helper()
	req := serve.HistoryRequest{Name: va.Pkg}
	for _, v := range va.Versions {
		req.Versions = append(req.Versions, wireApp(t, synth.GeneratedApp{App: v.App}))
	}
	return req
}

// TestServeCheckHistory posts a release chain with planted drift and
// checks the response carries per-version reports plus the expected
// drift findings, and that a repeated post is served from the
// server-lifetime artifact store without changing the answer.
func TestServeCheckHistory(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2, Longi: &longi.Config{}})
	fh := synth.NewVersionedFirehose(51, 5)

	// Find an app whose history has planted drift.
	var va synth.VersionedApp
	for i := int64(0); ; i++ {
		v, err := fh.History(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Drifts) > 0 {
			va = v
			break
		}
		if i > 20 {
			t.Fatal("no history with planted drift in 20 apps")
		}
	}

	url := "http://" + srv.Addr() + "/check-history"
	resp, body := postJSON(t, url, historyRequest(t, va))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var hr serve.HistoryResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if hr.Name != va.Pkg || len(hr.Versions) != len(va.Versions) {
		t.Fatalf("response shape: name=%q versions=%d, want %q/%d",
			hr.Name, len(hr.Versions), va.Pkg, len(va.Versions))
	}
	if hr.Stats.Checked != len(va.Versions) {
		t.Fatalf("stats = %+v, want %d checked", hr.Stats, len(va.Versions))
	}
	if len(hr.Drift) == 0 {
		t.Fatalf("planted drift (%+v) produced no drift findings", va.Drifts)
	}
	for _, p := range va.Drifts {
		found := false
		for _, d := range hr.Drift {
			if d.FromVersion == p.FromVersion && d.ToVersion == p.ToVersion &&
				d.Info == string(p.Info) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted drift on %q at v%d→v%d missing from response: %+v",
				p.Info, p.FromVersion, p.ToVersion, hr.Drift)
		}
	}

	// Second post: warm artifact store, identical answer.
	resp2, body2 := postJSON(t, url, historyRequest(t, va))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d, body %s", resp2.StatusCode, body2)
	}
	var hr2 serve.HistoryResponse
	if err := json.Unmarshal(body2, &hr2); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(hr.Drift)
	b, _ := json.Marshal(hr2.Drift)
	if string(a) != string(b) {
		t.Errorf("warm drift differs:\ncold: %s\nwarm: %s", a, b)
	}
}

// TestServeCheckHistoryDisabled: without Options.Longi the endpoint
// answers 501, and an empty chain is 400.
func TestServeCheckHistoryDisabled(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 1})
	url := "http://" + srv.Addr() + "/check-history"
	resp, body := postJSON(t, url, serve.HistoryRequest{Name: "x"})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("disabled endpoint status = %d, body %s", resp.StatusCode, body)
	}

	srv2 := startServer(t, serve.Options{Workers: 1, Longi: &longi.Config{}})
	resp2, body2 := postJSON(t, "http://"+srv2.Addr()+"/check-history", serve.HistoryRequest{Name: "x"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty chain status = %d, body %s", resp2.StatusCode, body2)
	}
}

// TestServeCheckHistoryMatchesCheck: an app whose static stage
// degrades — one method over the APG size limit, while the library
// scan still succeeds — gets the same report from /check and from a
// one-version /check-history on one server.
func TestServeCheckHistoryMatchesCheck(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2, Longi: &longi.Config{}})
	ga, err := synth.NewFirehose(99).App(111)
	if err != nil {
		t.Fatal(err)
	}
	a := *ga.App.APK
	a.Dex = &dex.Dex{Classes: append(append([]*dex.Class(nil), a.Dex.Classes...), synth.BombDex().Classes...)}
	ga.App.APK = &a
	req := wireApp(t, ga)

	resp, body := postJSON(t, "http://"+srv.Addr()+"/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status = %d, body %s", resp.StatusCode, body)
	}
	var cr serve.CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("bad /check JSON: %v\n%s", err, body)
	}
	resp, body = postJSON(t, "http://"+srv.Addr()+"/check-history",
		serve.HistoryRequest{Name: req.Name, Versions: []serve.CheckRequest{req}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check-history status = %d, body %s", resp.StatusCode, body)
	}
	var hr serve.HistoryResponse
	if err := json.Unmarshal(body, &hr); err != nil || len(hr.Versions) != 1 {
		t.Fatalf("bad /check-history response (%v): %s", err, body)
	}

	cr.Report.Timings = nil
	hr.Versions[0].Report.Timings = nil
	want, _ := json.Marshal(cr.Report)
	got, _ := json.Marshal(hr.Versions[0].Report)
	if string(got) != string(want) {
		t.Errorf("/check-history report differs from /check:\nhistory: %s\ncheck:   %s", got, want)
	}
	if !cr.Report.Problem {
		t.Errorf("bomb-dex app reports no problem: %s", want)
	}
}
