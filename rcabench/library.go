package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	rca "github.com/climate-rca/rca"
)

// env carries one run's settings and shared recorders.
type env struct {
	seed    uint64
	seconds time.Duration
	nproc   int
	chk     *checker
	tr      *tracer // nil in untraced runs
	setup   []float64
}

// measured holds named figures: a workload's metrics before they become
// a result, or one traced pass's per-layer figures.
type measured map[string]float64

// medianOver returns, for every name present in any pass, the median
// over passes (a pass without the name counts as 0).
func medianOver(passes []measured) measured {
	names := map[string]bool{}
	for _, p := range passes {
		for k := range p {
			names[k] = true
		}
	}
	out := measured{}
	for k := range names {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[k]
		}
		out[k] = median(xs)
	}
	return out
}

// minPasses is the least number of passes a run makes: a traced run
// needs two, so that every scenario's plain and traced twins each go
// first once.
func (e *env) minPasses() int {
	if e.tr != nil {
		return 2
	}
	return 1
}

// coldSession makes a fresh session and builds its control-ensemble
// fingerprint, recording the time as one set-up sample.
func (e *env) coldSession(ctx context.Context, cfg rca.CorpusConfig, opts ...rca.Option) (*rca.Session, error) {
	t := time.Now()
	s := rca.NewSession(cfg, opts...)
	if _, err := s.Fingerprint(ctx); err != nil {
		return nil, err
	}
	e.setup = append(e.setup, time.Since(t).Seconds())
	return s, nil
}

// checkerFor returns the output check of a pass: first-pass outputs
// must have a recorded reference when the seed has one.
func (e *env) checkerFor(pass int) func(key, out string, valid bool) bool {
	if pass == 0 {
		return e.chk.checkFirst
	}
	return e.chk.check
}

// investigate runs scs in order on a fresh session with one closed-loop
// caller and returns each investigation's latency. Outputs are checked
// under prefix/scenario.
func (e *env) investigate(ctx context.Context, cfg rca.CorpusConfig, pass int, prefix string, scs []rca.Scenario) ([]float64, error) {
	check := e.checkerFor(pass)
	s, err := e.coldSession(ctx, cfg, ciOptions()...)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, 0, len(scs))
	for _, sc := range scs {
		key := prefix + "/" + sc.Name()
		t := time.Now()
		o, err := s.Run(ctx, sc)
		d := time.Since(t).Seconds()
		if err != nil {
			e.chk.fail(key, err)
			continue
		}
		lat = append(lat, d)
		check(key, rca.FormatOutcome(o), o.BugLocated)
	}
	return lat, nil
}

// tracedPairs accumulates a traced run. Each pass investigates the same
// scenarios on two fresh sessions, one plain and one traced, taking
// turns scenario by scenario (and swapping which goes first) so that
// both sides see the same machine conditions.
type tracedPairs struct {
	n        int // passes started; numbers the spans' operations
	passes   []measured
	coverage []float64 // per investigation: stage spans over the plain Run's wall time
	overhead []float64 // per investigation: traced over plain wall time, minus one
}

// pass runs one paired pass of scs. The traced side calls the public
// Session stages in pipeline order, one span each, then Run to assemble
// the outcome; the stages are memoized, so each span is that stage's
// own time.
func (tp *tracedPairs) pass(ctx context.Context, e *env, cfg rca.CorpusConfig, prefix string, scs []rca.Scenario) {
	n := tp.n
	tp.n++
	check := e.checkerFor(n)
	tr := e.tr
	runtime.GC()
	plainS, err := e.coldSession(ctx, cfg, ciOptions()...)
	if err != nil {
		e.chk.fail(prefix, err)
		return
	}
	op0 := opName("pass", n)
	setupID := tr.begin(op0, "setup", 0)
	s := rca.NewSession(cfg, ciOptions()...)
	clean := rca.NewScenario("clean", rca.ScenarioOptions{})
	err = tr.do(op0, "corpus.build", setupID, func() error { _, err := s.Builds(ctx, clean); return err })
	if err == nil {
		err = tr.do(op0, "model.fingerprint", setupID, func() error { _, err := s.Fingerprint(ctx); return err })
	}
	tr.end(setupID)
	if err != nil {
		e.chk.fail(prefix, err)
		return
	}

	var nodes, edges, sliceNodes []float64
	lp := measured{}
	plainTime := map[string]time.Duration{} // by traced operation id
	for i, sc := range scs {
		key := prefix + "/" + sc.Name()
		op := opName("pass", n, sc.Name())
		plain := func() {
			t := time.Now()
			o, err := plainS.Run(ctx, sc)
			plainTime[op] = time.Since(t)
			if err != nil {
				e.chk.fail(key, err)
				return
			}
			check(key, rca.FormatOutcome(o), o.BugLocated)
		}
		traced := func() {
			root := tr.begin(op, "investigation", 0)
			var o *rca.Outcome
			var err error
			stage := func(name string, f func() error) {
				if err == nil {
					err = tr.do(op, name, root, f)
				}
			}
			stage("corpus.build", func() error { _, err := s.Builds(ctx, sc); return err })
			stage("model.fingerprint", func() error { _, err := s.Fingerprint(ctx); return err })
			stage("model.verdict", func() error { _, err := s.Verdict(ctx, sc); return err })
			stage("lasso.select", func() error { _, err := s.SelectVariables(ctx, sc); return err })
			stage("metagraph.compile", func() error { _, err := s.Compile(ctx, sc); return err })
			stage("slicing.slice", func() error { _, err := s.Slice(ctx, sc); return err })
			stage("core.refine", func() error { _, err := s.Refine(ctx, sc); return err })
			stage("experiments.outcome", func() error { o, err = s.Run(ctx, sc); return err })
			tr.end(root)
			if err != nil {
				e.chk.fail(key, err)
				return
			}
			check(key, rca.FormatOutcome(o), o.BugLocated)
			nodes = append(nodes, float64(o.GraphNodes))
			edges = append(edges, float64(o.GraphEdges))
			sliceNodes = append(sliceNodes, float64(o.SliceNodes))
			for _, it := range o.Refine.Iterations {
				lp["core.iterations"]++
				lp["core.communities"] += float64(len(it.Communities))
				lp["core.sampled"] += float64(len(it.Sampled))
			}
		}
		inOrder(n+i, plain, traced)
	}

	// Stage spans are the children of the set-up and investigation
	// roots; they run one after another, so each is its stage's self time.
	roots, stages := map[string]time.Duration{}, map[string]time.Duration{}
	for _, sp := range tr.snapshot() {
		if sp.Op != op0 && !strings.HasPrefix(sp.Op, op0+"/") {
			continue
		}
		switch {
		case sp.Name == "investigation":
			roots[sp.Op] += sp.dur()
		case sp.Parent != 0:
			lp[sp.Name+"_s"] += sp.dur().Seconds()
			if sp.Op != op0 {
				stages[sp.Op] += sp.dur()
			}
		}
	}
	for op, d := range plainTime {
		if d > 0 && roots[op] > 0 {
			tp.coverage = append(tp.coverage, stages[op].Seconds()/d.Seconds())
			tp.overhead = append(tp.overhead, roots[op].Seconds()/d.Seconds()-1)
		}
	}
	fits, iters := s.LassoStats()
	lp["lasso.fits"] = float64(fits)
	lp["lasso.iters"] = float64(iters)
	hits, misses := s.CompileCacheStats()
	lp["bytecode.compile_hits"] = float64(hits)
	lp["bytecode.compile_misses"] = float64(misses)
	lp["metagraph.nodes"] = median(nodes)
	lp["metagraph.edges"] = median(edges)
	lp["slicing.nodes"] = median(sliceNodes)
	tp.passes = append(tp.passes, lp)
}

// layers turns the passes into per-layer metrics: the median pass and
// the median per-investigation coverage and overhead. Medians, because
// one investigation can run several percent slower than its twin a
// moment later on a shared machine.
func (tp *tracedPairs) layers() measured {
	m := medianOver(tp.passes)
	if m["lasso.fits"] > 0 {
		m["lasso.iters_per_fit"] = m["lasso.iters"] / m["lasso.fits"]
	}
	if len(tp.coverage) > 0 {
		m["trace.coverage_frac"] = median(tp.coverage)
		m["trace.overhead_frac"] = median(tp.overhead)
	}
	return m
}

// inOrder runs a then b on even i and b then a on odd i.
func inOrder(i int, a, b func()) {
	if i%2 == 0 {
		a()
		b()
	} else {
		b()
		a()
	}
}

// runCatalog is the catalog workload: the eight §6+§8 scenarios on
// CI-sized corpora, a new one per pass derived from the seed. Each pass
// is a fresh session driven by one closed-loop caller (latency),
// followed by a second fresh session running RunAll with nproc workers
// (throughput).
//
// The latency percentiles are taken per pass and their median over
// passes is reported. The eight scenarios' latencies lie apart, four
// below and four above the median, so the median of all investigations
// pooled is the midpoint between the slowest of the fast four and the
// fastest of the slow four over the whole run — two extremes, which
// spread the figure over 0.07-0.30 of itself between runs.
func runCatalog(ctx context.Context, e *env) (measured, error) {
	scs := rca.AllExperiments()
	var p50, p90, tput []float64
	var tp tracedPairs
	ops := 0
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; ctx.Err() == nil && (pass < e.minPasses() || time.Since(start) < e.seconds); pass++ {
		cs := catalogCorpusSeed(e.seed, pass)
		cfg := rca.CorpusConfig{AuxModules: ciAux, Seed: cs}
		prefix := fmt.Sprintf("corpus=%d", cs)
		if e.tr != nil {
			tp.pass(ctx, e, cfg, prefix, scs)
			continue
		}
		runtime.GC() // start every pass from a collected heap
		l, err := e.investigate(ctx, cfg, pass, prefix, scs)
		if err != nil {
			e.chk.fail(prefix, err)
			continue
		}
		p50 = append(p50, percentile(l, 50))
		p90 = append(p90, percentile(l, 90))
		ops += len(l)
		s, err := e.coldSession(ctx, cfg, append(ciOptions(), rca.WithWorkers(e.nproc))...)
		if err != nil {
			e.chk.fail(prefix, err)
			continue
		}
		t := time.Now()
		outs, err := s.RunAll(ctx, scs)
		d := time.Since(t).Seconds()
		if err != nil {
			e.chk.fail(prefix+"/RunAll", err)
			continue
		}
		tput = append(tput, float64(len(outs))/d)
		ops += len(outs)
		check := e.checkerFor(pass)
		for i, o := range outs {
			check(prefix+"/"+scs[i].Name(), rca.FormatOutcome(o), o.BugLocated)
		}
	}
	cpu := (cpuTime() - cpu0).Seconds()
	if e.tr != nil {
		return tp.layers(), nil
	}
	return measured{
		"op_p50_s":     median(p50),
		"op_p90_s":     median(p90),
		"ops_per_s":    median(tput),
		"cpu_per_op_s": cpu / float64(ops),
	}, nil
}

// paperScaleScenarios are the paperscale workload's investigations:
// three defects whose refinement does most of their work. Their
// latencies are far apart (AVX2-FULL about 1.2 s, RANDOMBUG 1.7 s,
// DYN3BUG 2.2 s on a two-vCPU VM), so the median investigation is
// always a RANDOMBUG one; GOFFGRATCH, within 10% of DYN3BUG, would make
// the median jump between two scenarios from run to run.
func paperScaleScenarios(seed uint64) []rca.Scenario {
	all := []rca.Scenario{rca.AVX2Full, rca.RANDOMBUG, rca.DYN3BUG}
	var scs []rca.Scenario
	for _, i := range newRNG(seed, "paperscale-order", 0).perm(len(all)) {
		scs = append(scs, all[i])
	}
	return scs
}

// paperScaleSetups is the least number of set-up samples a paperscale
// run takes (each pass gives one).
const paperScaleSetups = 3

// runPaperScale is the paperscale workload: three catalog scenarios on
// the 561-module corpus, each pass a fresh session driven by one
// closed-loop caller.
func runPaperScale(ctx context.Context, e *env) (measured, error) {
	cfg := rca.PaperScaleCorpus()
	scs := paperScaleScenarios(e.seed)
	var lat []float64
	var tp tracedPairs
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; ctx.Err() == nil && (pass < e.minPasses() || time.Since(start) < e.seconds); pass++ {
		if e.tr != nil {
			tp.pass(ctx, e, cfg, "paperscale", scs)
			continue
		}
		runtime.GC()
		l, err := e.investigate(ctx, cfg, pass, "paperscale", scs)
		if err != nil {
			e.chk.fail("paperscale", err)
			continue
		}
		lat = append(lat, l...)
	}
	cpu := (cpuTime() - cpu0).Seconds()
	if e.tr != nil {
		return tp.layers(), nil
	}
	for len(e.setup) < paperScaleSetups {
		if _, err := e.coldSession(ctx, cfg, ciOptions()...); err != nil {
			return nil, err
		}
	}
	return measured{
		"op_p50_s":     percentile(lat, 50),
		"op_p90_s":     percentile(lat, 90),
		"ops_per_s":    float64(len(lat)) / sum(lat),
		"cpu_per_op_s": cpu / float64(len(lat)),
	}, nil
}
