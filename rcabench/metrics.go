package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload by the untraced run. What "op" means per workload is in
// README.md: one investigation (catalog, paperscale), one port-verification
// study (verify), one job that runs the pipeline (service).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_per_op_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"corpus.build_s", "s"},
	{"bytecode.compile_hits", "count"},
	{"bytecode.compile_misses", "count"},
	{"model.fingerprint_s", "s"},
	{"model.verdict_s", "s"},
	{"lasso.select_s", "s"},
	{"lasso.fits", "count"},
	{"lasso.iters", "count"},
	{"lasso.iters_per_fit", "count"},
	{"metagraph.compile_s", "s"},
	{"metagraph.nodes", "count"},
	{"metagraph.edges", "count"},
	{"slicing.slice_s", "s"},
	{"slicing.nodes", "count"},
	{"core.refine_s", "s"},
	{"core.iterations", "count"},
	{"core.communities", "count"},
	{"core.sampled", "count"},
	{"experiments.table1_s", "s"},
	{"search.run_s", "s"},
	{"search.evaluations", "count"},
	{"search.exhaustive", "count"},
	{"search.pruned", "count"},
	{"search.pruning_ratio", "ratio"},
	{"serve.job_hit_p50_ms", "ms"},
	{"serve.job_hit_p90_ms", "ms"},
	{"serve.job_dup_p50_s", "s"},
	{"serve.executions", "count"},
	{"serve.deduped", "count"},
	{"serve.from_store", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"artifact.hits", "count"},
	{"artifact.misses", "count"},
	{"artifact.bytes", "bytes"},
	{"trace.coverage_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a metric set with a malformed or repeated name.
func checkNames(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, ds := range defs {
		for _, d := range ds {
			if !metricName.MatchString(d.Name) {
				return fmt.Errorf("bad metric name %q", d.Name)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric %q defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from vals (missing ones are an
// error: BENCHMARK.json promises every metric on every run).
func newResult(chk *checker, defs []metricDef, vals map[string]float64) (result, error) {
	a, f := chk.counts()
	r := result{Correct: f == 0 && a > 0, Attempted: a, Failed: f, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// benchmarkSpec is the part of BENCHMARK.json the harness checks
// itself against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
