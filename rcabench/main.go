// Command rcabench is the repository's benchmark: one command that runs
// a workload against the public rca API or the rcad binary, checks every
// output against its reference, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON line. See README.md
// for the workloads, metrics and the layer-to-metric predictions.
//
// Usage (from the repository root; run.sh builds and calls it):
//
//	rcabench -workload catalog -seed 1 -seconds 25 -trace 0 -rcad PATH -work DIR
//	rcabench -spread BENCHMARK.json result-1.txt result-2.txt ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workloads are the workloads BENCHMARK.json lists. paperscale runs
// only by hand: its refinement-bound passes are the paper's own scale,
// but BENCHMARK.json leaves it out so that the listed workloads get
// longer runs within the benchmark's time limit (see README.md).
var (
	workloads      = []string{"catalog", "verify", "service"}
	extraWorkloads = []string{"paperscale"}
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: catalog | paperscale | verify | service")
		seed     = flag.Uint64("seed", 1, "workload seed: derives every generated input")
		seconds  = flag.Int("seconds", 25, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		root     = flag.String("root", ".", "repository root (holds rcabench/testdata)")
		rcadBin  = flag.String("rcad", "", "rcad binary (service workload)")
		work     = flag.String("work", ".bench_build", "directory for traces and temporary rcad stores")
		record   = flag.Bool("record", false, "write the outputs of this run as the seed's reference")
		spreadOf = flag.String("spread", "", "summarize result files (the arguments) against this BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spreadOf != "" {
		if err := printSpread(os.Stdout, *spreadOf, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "rcabench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rcabench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *rcadBin, *work, *record); err != nil {
		fmt.Fprintln(os.Stderr, "rcabench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool, root, rcadBin, work string, record bool) error {
	known := false
	for _, w := range append(workloads, extraWorkloads...) {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, append(workloads, extraWorkloads...))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := checkNames(endToEnd, perLayer); err != nil {
		return err
	}
	refDir := filepath.Join(root, "rcabench", "testdata", "ref")
	ref, err := loadRef(refPath(refDir, workload, seed))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, nproc: runtime.NumCPU(), chk: newChecker(ref)}
	if traced {
		e.tr = newTracer()
	}
	var m measured
	switch workload {
	case "catalog":
		m, err = runCatalog(ctx, e)
	case "paperscale":
		m, err = runPaperScale(ctx, e)
	case "verify":
		m, err = runVerify(ctx, e)
	case "service":
		if rcadBin == "" {
			return fmt.Errorf("the service workload needs -rcad")
		}
		m, err = runService(ctx, e, rcadBin, work)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	m["setup_s"] = median(e.setup)
	if _, ok := m["peak_rss_mb"]; !ok {
		m["peak_rss_mb"] = peakRSSMB()
	}
	m["failed_frac"] = e.chk.failedFrac()
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = 0 // a layer this workload does not exercise
			}
		}
		dir := filepath.Join(work, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := e.tr.write(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", workload, seed))); err != nil {
			return err
		}
	}
	if record {
		if _, failed := e.chk.counts(); failed > 0 {
			return fmt.Errorf("not recording a reference from a run with %d failed operations", failed)
		}
		if err := os.MkdirAll(refDir, 0o755); err != nil {
			return err
		}
		if err := e.chk.saveRef(refPath(refDir, workload, seed)); err != nil {
			return err
		}
	}
	for i, p := range e.chk.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "rcabench: ... %d more problems\n", len(e.chk.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "rcabench: output check:", p)
	}
	a, _ := e.chk.counts()
	if ref == nil {
		fmt.Printf("rcabench: %d outputs checked; seed %d has no recorded reference\n", a, seed)
	} else {
		fmt.Printf("rcabench: %d of %d checked outputs matched the recorded reference\n", e.chk.hits(), a)
	}
	res, err := newResult(e.chk, defs, m)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
