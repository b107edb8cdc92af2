package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	rca "github.com/climate-rca/rca"
)

// table1Setup is the Table 1 sizing of the repository's
// BenchmarkTable1SelectiveFMA: 8 modules per strategy, 4 random samples.
var table1Setup = rca.Table1Setup{ExpSize: ciExp, TopK: 8, RandomSamples: 4}

// searchAnswer renders what a search found — the base and candidate
// failure rates and the best subset — without the exploration counts,
// which a better search may legitimately change.
func searchAnswer(r *rca.SearchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective %s threshold %g base %s rate %g\n", r.Objective, r.Threshold, r.BaseName, r.BaseRate)
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "candidate %s feasible %v rate %g\n", c.ID, c.Feasible, c.Rate)
	}
	if r.Best == nil {
		b.WriteString("best none\n")
	} else {
		fmt.Fprintf(&b, "best %s rate %g\n", strings.Join(r.Best.IDs, " + "), r.Best.Rate)
	}
	return b.String()
}

// searchValid tests a search answer against its objective: a minimal
// flipping subset must reach the threshold, a max-delta search must
// return a subset.
func searchValid(r *rca.SearchResult) bool {
	switch r.Objective {
	case rca.SearchMinFlip:
		return r.Best == nil || r.Best.Rate >= r.Threshold
	default:
		return r.Best != nil
	}
}

// verifyOptions are the options of every verify session. A round runs
// single-threaded — the sessions and the searches at parallelism 1 — so
// its time is verdict work rather than how parallel search waves share
// the cores; results are bit-identical at every parallelism level.
func verifyOptions() []rca.Option {
	return append(ciOptions(), rca.WithParallelism(1))
}

var searchObjectives = []rca.SearchObjective{rca.SearchMinFlip, rca.SearchMaxDelta}

// studyRound is one §6.4-6.5 hardware-port study: Table 1 on the warm
// session, then a minimal-flip and a max-delta search over pool k, each
// on a fresh session whose fingerprint is built before its timer starts.
// It returns the round's latency; a traced round also returns its
// per-layer figures and its stage-span total.
func (e *env) studyRound(ctx context.Context, warm *rca.Session, round, k int, traced bool) (float64, measured, time.Duration, error) {
	tr := e.tr
	if !traced {
		tr = nil
	}
	pool, err := searchPool(e.seed, k)
	if err != nil {
		return 0, nil, 0, err
	}
	op := opName("round", round)
	lp := measured{}
	var spans time.Duration
	timed := func(name string, f func() error) (float64, error) {
		id := tr.begin(op, name, 0)
		t := time.Now()
		err := f()
		d := time.Since(t)
		tr.end(id)
		spans += d
		lp[name+"_s"] += d.Seconds()
		return d.Seconds(), err
	}
	fits0, _ := warm.LassoStats()
	var rows []rca.Table1Row
	total, err := timed("experiments.table1", func() error {
		var err error
		rows, err = warm.Table1(ctx, table1Setup)
		return err
	})
	if err != nil {
		e.chk.fail("table1", err)
	} else {
		// Every round runs the same Table 1, so every round is a first pass.
		e.chk.checkFirst("table1", rca.FormatTable1(rows), len(rows) > 0)
	}
	fits1, _ := warm.LassoStats()
	lp["lasso.fits"] += float64(fits1 - fits0)
	for _, obj := range searchObjectives {
		key := fmt.Sprintf("search/pool=%d/%s", k, obj)
		s, err := e.searchSession(ctx, tr, op, lp)
		if err != nil {
			e.chk.fail(key, err)
			continue
		}
		var res *rca.SearchResult
		d, err := timed("search.run", func() error {
			var err error
			res, err = rca.Search(ctx, s, rca.SearchOptions{Pool: pool, Objective: obj, Parallelism: 1})
			return err
		})
		total += d
		if err != nil {
			e.chk.fail(key, err)
			continue
		}
		e.checkerFor(k)(key, searchAnswer(res), searchValid(res))
		fits, iters := s.LassoStats()
		lp["lasso.fits"] += float64(fits)
		lp["lasso.iters"] += float64(iters)
		hits, misses := s.CompileCacheStats()
		lp["bytecode.compile_hits"] += float64(hits)
		lp["bytecode.compile_misses"] += float64(misses)
		lp["search.evaluations"] += float64(res.Stats.Evaluations)
		lp["search.exhaustive"] += float64(res.Stats.Exhaustive)
		lp["search.pruned"] += float64(res.Stats.Pruned)
	}
	if lp["search.evaluations"] > 0 {
		lp["search.pruning_ratio"] = lp["search.exhaustive"] / lp["search.evaluations"]
	}
	return total, lp, spans, nil
}

// searchSession makes the fresh session a search runs on, with its
// fingerprint built before the search's timer starts. An untraced round
// takes it as a set-up sample; a traced one records the build and the
// fingerprint as spans outside the round's latency.
func (e *env) searchSession(ctx context.Context, tr *tracer, op string, lp measured) (*rca.Session, error) {
	cfg := rca.CorpusConfig{AuxModules: ciAux, Seed: ciSeed}
	if tr == nil {
		return e.coldSession(ctx, cfg, verifyOptions()...)
	}
	s := rca.NewSession(cfg, verifyOptions()...)
	clean := rca.NewScenario("clean", rca.ScenarioOptions{})
	steps := []struct {
		name string
		f    func() error
	}{
		{"corpus.build", func() error { _, err := s.Builds(ctx, clean); return err }},
		{"model.fingerprint", func() error { _, err := s.Fingerprint(ctx); return err }},
	}
	for _, st := range steps {
		t := time.Now()
		if err := tr.do(op, st.name, 0, st.f); err != nil {
			return nil, err
		}
		lp[st.name+"_s"] += time.Since(t).Seconds()
	}
	return s, nil
}

// runVerify is the verify workload: verdict-only studies on the fixed
// CI corpus, each round over a new search pool derived from the seed. A
// traced run pairs an untraced and a traced round over the same pool.
func runVerify(ctx context.Context, e *env) (measured, error) {
	warm, err := e.coldSession(ctx, rca.CorpusConfig{AuxModules: ciAux, Seed: ciSeed}, verifyOptions()...)
	if err != nil {
		return nil, err
	}
	// Table 1 memoizes the full metagraph on first use; pay that before
	// timing so every timed Table 1 runs on the same warm session.
	if _, err := warm.Table1(ctx, table1Setup); err != nil {
		return nil, err
	}
	var lat []float64
	var tp tracedPairs
	start, cpu0 := time.Now(), cpuTime()
	for k := 0; ctx.Err() == nil && (k == 0 || time.Since(start) < e.seconds); k++ {
		runtime.GC()
		if e.tr == nil {
			d, _, _, err := e.studyRound(ctx, warm, k, k, false)
			if err != nil {
				e.chk.fail(fmt.Sprintf("round/%d", k), err)
				continue
			}
			lat = append(lat, d)
			continue
		}
		var d, td float64
		var lp measured
		var spans time.Duration
		var errU, errT error
		plain := func() { d, _, _, errU = e.studyRound(ctx, warm, 2*k, k, false) }
		traced := func() { td, lp, spans, errT = e.studyRound(ctx, warm, 2*k+1, k, true) }
		inOrder(k, plain, traced)
		if errU != nil || errT != nil {
			e.chk.fail(fmt.Sprintf("round/%d", k), errors.Join(errU, errT))
			continue
		}
		tp.passes = append(tp.passes, lp)
		tp.coverage = append(tp.coverage, spans.Seconds()/d)
		tp.overhead = append(tp.overhead, td/d-1)
	}
	cpu := (cpuTime() - cpu0).Seconds()
	if e.tr != nil {
		return tp.layers(), nil
	}
	return measured{
		"op_p50_s":     percentile(lat, 50),
		"op_p90_s":     percentile(lat, 90),
		"ops_per_s":    float64(len(lat)) / sum(lat),
		"cpu_per_op_s": cpu / float64(len(lat)),
	}, nil
}
