package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP rcad_jobs_submitted_total Accepted job submissions.
# TYPE rcad_jobs_submitted_total counter
rcad_jobs_submitted_total{engine="bytecode"} 8
rcad_pipeline_executions_total{engine="bytecode"} 8
rcad_lasso_fits_total{engine="bytecode",solver="cd"} 120
rcad_queue_depth{engine="bytecode"} 0
`

const promAfter = `# HELP rcad_jobs_submitted_total Accepted job submissions.
# TYPE rcad_jobs_submitted_total counter
rcad_jobs_submitted_total{engine="bytecode"} 30
rcad_pipeline_executions_total{engine="bytecode"} 19
rcad_lasso_fits_total{engine="bytecode",solver="cd"} 300
rcad_queue_depth{engine="bytecode"} 2
rcad_artifact_store_bytes{engine="bytecode"} 1.5e+06
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for name, want := range map[string]float64{
		"rcad_jobs_submitted_total":      22,
		"rcad_pipeline_executions_total": 11,
		"rcad_lasso_fits_total":          180,
		"rcad_queue_depth":               2,
		"rcad_artifact_store_bytes":      1.5e6, // absent before: counts from 0
	} {
		if d[name] != want {
			t.Errorf("delta %s = %v, want %v", name, d[name], want)
		}
	}
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"rcad_x\n", "rcad_x{a=\"b\"} notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted it", bad)
		}
	}
}
