package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestMetricNames(t *testing.T) {
	if err := checkNames(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "slash/no", ".leading", "ünïcode", "x{y}"} {
		if err := checkNames([]metricDef{{bad, "s"}}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := checkNames([]metricDef{{"a.b-c_1", "s"}}, []metricDef{{"a.b-c_1", "s"}}); err == nil {
		t.Error("repeated name accepted")
	}
}

// TestBenchmarkJSONInSync keeps BENCHMARK.json and the metrics the
// harness prints identical, names and units, in order.
func TestBenchmarkJSONInSync(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, harness %v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, harness %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloads)
		}
	}
}

func TestResultCarriesEveryMetric(t *testing.T) {
	chk := newChecker(nil)
	chk.check("k", "out", true)
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	r, err := newResult(chk, endToEnd, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 1 || r.Failed != 0 || len(r.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", r)
	}
	vals["op_p90_s"] = math.NaN() // a percentile of no samples
	if _, err := newResult(chk, endToEnd, vals); err == nil {
		t.Error("a metric without samples was not reported")
	}
	delete(vals, "setup_s")
	if _, err := newResult(chk, endToEnd, vals); err == nil {
		t.Error("a missing metric was not reported")
	}
}
