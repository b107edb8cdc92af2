package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// lastResult reads the result line (the last non-empty line) of one
// benchmark output file.
func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %v", path, err)
	}
	return &r, nil
}

// printSpread summarizes a set of runs of one workload: per metric the
// median, the quartiles and their distance as a share of the median,
// next to the metric's bound from BENCHMARK.json.
func printSpread(w io.Writer, specPath string, files []string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	vals := map[string][]float64{}
	failed := 0
	for _, f := range files {
		r, err := lastResult(f)
		if err != nil {
			return err
		}
		if !r.Correct || r.Failed > 0 {
			failed++
		}
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d with failed outputs\n", len(files), failed)
	fmt.Fprintf(w, "%-24s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, k := range names {
		q1, q3, _ := quartiles(vals[k])
		b := "-"
		if v, ok := bounds[k]; ok {
			b = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(w, "%-24s %12.6g %12.6g %12.6g %8.3f %6s\n", k, median(vals[k]), q1, q3, spread(vals[k]), b)
	}
	return nil
}
