// Command benchjson converts `go test -bench` output on stdin into the
// JSON benchmark snapshot format the CI bench job uploads (and
// BENCH_*.json files in the repo root record): benchmark name mapped
// to ns/op, B/op and allocs/op, averaged over -count repetitions.
//
// With -baseline it additionally guards against regressions: the named
// benchmark's fresh ns/op is compared to the committed snapshot's and
// the process exits nonzero when it regressed beyond -tol.
//
// With -ratio NUM/DEN it checks a same-run comparison instead of an
// absolute number: NUM's ns/op must be strictly below DEN's, both
// parsed from the same input. Both sides run on one machine in one
// job, so the gate compares like with like on any runner.
//
// Usage:
//
//	go test -bench 'PipelineSixSpecs|GirvanNewman|EdgeBetweenness' \
//	    -benchmem -count 3 -run '^$' ./... | go run ./cmd/benchjson
//	... | go run ./cmd/benchjson -baseline BENCH_PR5.json -key pr5 \
//	    -guard BenchmarkPipelineSixSpecsSession -tol 0.15
//	... | go run ./cmd/benchjson \
//	    -ratio BenchmarkSelectKCDDense/BenchmarkSelectKISTADense
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches one -benchmem result row. The -N GOMAXPROCS suffix
// is stripped so snapshots compare across machines, and custom
// b.ReportMetric units may sit between ns/op and the -benchmem pair.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

// coldWarm match the custom b.ReportMetric units the warm-restart
// benchmark emits alongside ns/op.
var (
	coldMS = regexp.MustCompile(`([\d.]+) coldms`)
	warmMS = regexp.MustCompile(`([\d.]+) warmms`)
)

// searchNodes/searchMS match the scenario-search benchmark's custom
// units: distinct subsets evaluated (the pruning numerator; compare
// against the exhaustive count) and wall milliseconds per search.
var (
	searchNodes = regexp.MustCompile(`([\d.]+) searchnodes`)
	searchMS    = regexp.MustCompile(`([\d.]+) searchms`)
)

// lassoMS/lassoIters match the lasso benchmarks' custom units: wall
// milliseconds per SelectK path search and solver iterations consumed
// (per search for the lasso benches, per pipeline run for the
// six-spec benches).
var (
	lassoMS    = regexp.MustCompile(`([\d.]+) lassoms`)
	lassoIters = regexp.MustCompile(`([\d.]+) lassoiters`)
)

// Result is one benchmark's averaged numbers. ColdMS/WarmMS carry a
// job-latency pair (milliseconds for the first, pipeline-executing
// request vs a warm-restart replay from the artifact store) when the
// producer measured one; zero pairs are omitted from the JSON.
type Result struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	Runs     int     `json:"runs"`
	ColdMS   float64 `json:"coldms,omitempty"`
	WarmMS   float64 `json:"warmms,omitempty"`
	// SearchNodes/SearchMS carry the scenario-search benchmark's
	// pruning and latency metrics when the producer measured them.
	SearchNodes float64 `json:"searchnodes,omitempty"`
	SearchMS    float64 `json:"searchms,omitempty"`
	// LassoMS/LassoIters carry the lasso benchmarks' per-search wall
	// time and solver iteration counts when the producer measured them.
	LassoMS    float64 `json:"lassoms,omitempty"`
	LassoIters float64 `json:"lassoiters,omitempty"`
}

func main() {
	var (
		baseline = flag.String("baseline", "", "committed snapshot JSON to guard against")
		key      = flag.String("key", "", "top-level object inside the baseline holding the results (e.g. pr5); empty = the file is the results map")
		guard    = flag.String("guard", "BenchmarkPipelineSixSpecsSession", "benchmark name the regression guard checks")
		tol      = flag.Float64("tol", 0.15, "allowed fractional ns/op regression before failing")
		ratio    = flag.String("ratio", "", "NUM/DEN: benchmark names; fails unless NUM's same-run ns/op is below DEN's")
	)
	flag.Parse()
	acc := map[string]*Result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := acc[m[1]]
		if r == nil {
			r = &Result{}
			acc[m[1]] = r
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		r.NsOp += ns
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			a, _ := strconv.ParseFloat(m[4], 64)
			r.BOp += b
			r.AllocsOp += a
		}
		if cm := coldMS.FindStringSubmatch(sc.Text()); cm != nil {
			v, _ := strconv.ParseFloat(cm[1], 64)
			r.ColdMS += v
		}
		if wm := warmMS.FindStringSubmatch(sc.Text()); wm != nil {
			v, _ := strconv.ParseFloat(wm[1], 64)
			r.WarmMS += v
		}
		if sn := searchNodes.FindStringSubmatch(sc.Text()); sn != nil {
			v, _ := strconv.ParseFloat(sn[1], 64)
			r.SearchNodes += v
		}
		if sm := searchMS.FindStringSubmatch(sc.Text()); sm != nil {
			v, _ := strconv.ParseFloat(sm[1], 64)
			r.SearchMS += v
		}
		if lm := lassoMS.FindStringSubmatch(sc.Text()); lm != nil {
			v, _ := strconv.ParseFloat(lm[1], 64)
			r.LassoMS += v
		}
		if li := lassoIters.FindStringSubmatch(sc.Text()); li != nil {
			v, _ := strconv.ParseFloat(li[1], 64)
			r.LassoIters += v
		}
		r.Runs++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, r := range acc {
		n := float64(r.Runs)
		r.NsOp /= n
		r.BOp /= n
		r.AllocsOp /= n
		r.ColdMS /= n
		r.WarmMS /= n
		r.SearchNodes /= n
		r.SearchMS /= n
		r.LassoMS /= n
		r.LassoIters /= n
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(acc); err != nil { // json sorts map keys
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := checkGuard(acc, *baseline, *key, *guard, *tol); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *ratio != "" {
		if err := checkRatio(acc, *ratio); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// checkRatio fails unless the first of the two benchmarks named by
// spec ("NUM/DEN") ran strictly faster than the second: NUM/DEN < 1.
func checkRatio(acc map[string]*Result, spec string) error {
	num, den, ok := strings.Cut(spec, "/")
	if !ok || num == "" || den == "" {
		return fmt.Errorf("-ratio %q: want NUM/DEN benchmark names", spec)
	}
	for _, name := range []string{num, den} {
		if r, ok := acc[name]; !ok || r.NsOp <= 0 {
			return fmt.Errorf("-ratio: input has no usable %s result", name)
		}
	}
	got := acc[num].NsOp / acc[den].NsOp
	if got >= 1 {
		return fmt.Errorf("%s/%s = %.3f, want < 1 (%.0f vs %.0f ns/op)",
			num, den, got, acc[num].NsOp, acc[den].NsOp)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s/%s ok: %.3f < 1\n", num, den, got)
	return nil
}

// checkGuard fails when the guarded benchmark's fresh ns/op exceeds
// the committed snapshot's by more than the tolerance.
func checkGuard(acc map[string]*Result, path, key, guard string, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	results := data
	if key != "" {
		raw, ok := doc[key]
		if !ok {
			return fmt.Errorf("%s: no %q object", path, key)
		}
		results = raw
	}
	var base map[string]*Result
	if err := json.Unmarshal(results, &base); err != nil {
		return fmt.Errorf("%s[%s]: %w", path, key, err)
	}
	want, ok := base[guard]
	if !ok || want.NsOp <= 0 {
		return fmt.Errorf("%s: baseline has no usable %s entry", path, guard)
	}
	got, ok := acc[guard]
	if !ok {
		return fmt.Errorf("fresh run has no %s result to guard", guard)
	}
	limit := want.NsOp * (1 + tol)
	if got.NsOp > limit {
		return fmt.Errorf("%s regressed: %.0f ns/op vs committed %.0f (limit %.0f, tol %.0f%%)",
			guard, got.NsOp, want.NsOp, limit, tol*100)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s ok: %.0f ns/op vs committed %.0f (limit %.0f)\n",
		guard, got.NsOp, want.NsOp, limit)
	return nil
}
