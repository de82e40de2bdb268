package main

import (
	"encoding/json"
	"os"
	"testing"
)

func seq(n int) *Samples {
	s := &Samples{}
	for i := n; i >= 1; i-- { // unsorted on purpose
		s.Add(float64(i))
	}
	return s
}

func TestPercentileReportsSampleCount(t *testing.T) {
	s := seq(200)
	for _, tc := range []struct{ p, want float64 }{{50, 100}, {95, 190}} {
		st, err := s.Percentile(tc.p)
		if err != nil {
			t.Fatalf("p%g of 200: %v", tc.p, err)
		}
		if st.Value != tc.want || st.N != 200 {
			t.Errorf("p%g = %+v, want value %g over 200 samples", tc.p, st, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p95 of 199 samples has 9 beyond it; of 200, exactly 10.
	if _, err := seq(199).Percentile(95); err == nil {
		t.Error("p95 of 199 samples accepted with only 9 beyond it")
	}
	if _, err := seq(200).Percentile(95); err != nil {
		t.Errorf("p95 of 200 samples refused: %v", err)
	}
	if _, err := seq(200).Percentile(99); err == nil {
		t.Error("p99 of 200 samples accepted with only 2 beyond it")
	}
	if _, err := seq(19).Percentile(50); err == nil {
		t.Error("p50 of 19 samples accepted with only 9 beyond it")
	}
	st, err := (&Samples{}).Percentile(50)
	if err == nil || st.N != 0 {
		t.Errorf("p50 of no samples = %+v, %v; want a refusal", st, err)
	}
}

func TestRatioCarriesBase(t *testing.T) {
	if st := (Ratio{3, 4}).Stat(); st.Value != 0.75 || st.N != 4 {
		t.Errorf("3 of 4 = %+v, want 0.75 over base 4", st)
	}
	if st := (Ratio{0, 0}).Stat(); st.Value != 0 || st.N != 0 {
		t.Errorf("0 of 0 = %+v, want 0 over base 0", st)
	}
}

func TestMeanAndMedian(t *testing.T) {
	if st := seq(4).Mean(); st.Value != 2.5 || st.N != 4 {
		t.Errorf("mean of 1..4 = %+v", st)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", m)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric and
// workload lists in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
