package rca

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/climate-rca/rca/internal/experiments"
)

// outcomeSummary collects every deterministic quantity an Outcome
// carries, for whole-pipeline equality checks.
type outcomeSummary struct {
	Name            string
	FailureRate     float64
	SelectedOutputs []string
	Internals       []string
	GraphNodes      int
	GraphEdges      int
	SliceNodes      int
	SliceEdges      int
	BugNodes        []int
	BugDisplays     []string
	KGenFlagged     []string
	BugInSlice      bool
	BugLocated      bool
	Iterations      int
	Actions         []string
	Final           []int
}

func summarize(o *Outcome) outcomeSummary {
	s := outcomeSummary{
		Name:            o.Name,
		FailureRate:     o.FailureRate,
		SelectedOutputs: o.SelectedOutputs,
		Internals:       o.Internals,
		GraphNodes:      o.GraphNodes,
		GraphEdges:      o.GraphEdges,
		SliceNodes:      o.SliceNodes,
		SliceEdges:      o.SliceEdges,
		BugNodes:        o.BugNodes,
		BugDisplays:     o.BugDisplays,
		KGenFlagged:     o.KGenFlagged,
		BugInSlice:      o.BugInSlice,
		BugLocated:      o.BugLocated,
		Iterations:      len(o.Refine.Iterations),
		Final:           o.Refine.Final,
	}
	for _, it := range o.Refine.Iterations {
		s.Actions = append(s.Actions, string(it.Action))
	}
	return s
}

// TestSessionRunAllConcurrent proves the cached corpus, ensemble and
// metagraphs are safe to share across RunAll's worker goroutines (run
// under -race in CI) and that the fan-out returns the same outcomes a
// sequential composition does.
func TestSessionRunAllConcurrent(t *testing.T) {
	ctx := context.Background()
	cfg := CorpusConfig{AuxModules: 30, Seed: 2}
	scenarios := Experiments()

	concurrent := NewSession(cfg, WithEnsembleSize(20), WithExpSize(5), WithWorkers(len(scenarios)))
	outs, err := concurrent.RunAll(ctx, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(scenarios) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(scenarios))
	}
	sequential := NewSession(cfg, WithEnsembleSize(20), WithExpSize(5))
	for i, sc := range scenarios {
		if outs[i] == nil || outs[i].Name != sc.Name() {
			t.Fatalf("outcome %d = %+v, want %s", i, outs[i], sc.Name())
		}
		want, err := sequential.Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(summarize(outs[i]), summarize(want)) {
			t.Fatalf("%s: concurrent outcome diverges:\nconcurrent: %+v\nsequential: %+v",
				sc.Name(), summarize(outs[i]), summarize(want))
		}
	}
}

// TestSessionStagesCompose exercises the typed stages individually and
// checks they agree with the composed Run.
func TestSessionStagesCompose(t *testing.T) {
	ctx := context.Background()
	session := NewSession(CorpusConfig{AuxModules: 30, Seed: 2},
		WithEnsembleSize(20), WithExpSize(5))
	sc := WSUBBUG

	v, err := session.Verdict(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if v.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", v.FailureRate)
	}
	sel, err := session.SelectVariables(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Outputs) == 0 {
		t.Fatal("no outputs selected")
	}
	comp, err := session.Compile(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Metagraph.G.NumNodes() == 0 {
		t.Fatal("empty metagraph")
	}
	sl, err := session.Slice(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.BugInSlice {
		t.Fatal("bug not in slice")
	}
	ref, err := session.Refine(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := session.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate != v.FailureRate || out.Refine != ref ||
		out.Metagraph != comp.Metagraph || out.Slice != sl.Slice {
		t.Fatal("Run did not reuse the cached stage results")
	}
	if !out.BugLocated {
		t.Fatal("bug not located")
	}
}

// TestSelectionSharedAcrossSlicingOptions pins the select stage's
// cache key: AVX2 and AVX2-FULL differ only in slicing options, so
// once AVX2 has run, AVX2-FULL reuses its lasso path search (zero new
// fits) and still reports exactly what a fresh session reports.
func TestSelectionSharedAcrossSlicingOptions(t *testing.T) {
	ctx := context.Background()
	cfg := CorpusConfig{AuxModules: 30, Seed: 2}
	session := NewSession(cfg, WithEnsembleSize(20), WithExpSize(5))
	if _, err := session.Run(ctx, AVX2); err != nil {
		t.Fatal(err)
	}
	fits, iters := session.LassoStats()
	if fits == 0 {
		t.Fatal("AVX2 ran no lasso fits; the check below would be vacuous")
	}
	shared, err := session.Run(ctx, AVX2Full)
	if err != nil {
		t.Fatal(err)
	}
	if f, it := session.LassoStats(); f != fits || it != iters {
		t.Fatalf("AVX2-FULL after AVX2 added %d fits, %d iterations; want 0, 0", f-fits, it-iters)
	}
	fresh, err := NewSession(cfg, WithEnsembleSize(20), WithExpSize(5)).Run(ctx, AVX2Full)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatOutcome(shared), FormatOutcome(fresh); got != want {
		t.Fatalf("shared-selection AVX2-FULL diverges from a fresh session:\n--- shared ---\n%s--- fresh ---\n%s", got, want)
	}
}

// TestCompositeScenarioEndToEnd is the acceptance scenario: a
// user-defined two-defect composite (WSUB + GOFFGRATCH, not in the
// prewired catalog) runs end to end, carries both defect sites, and a
// re-run — even under a different display name — hits the session's
// metagraph and refinement caches.
func TestCompositeScenarioEndToEnd(t *testing.T) {
	ctx := context.Background()
	cfg := CorpusConfig{AuxModules: 30, Seed: 2}
	session := NewSession(cfg, WithEnsembleSize(20), WithExpSize(5))

	opts := ScenarioOptions{CAMOnly: true, SelectK: 5}
	sc := NewScenario("WSUB+GG", opts, WsubDefect(), GoffGratchDefect())

	out, err := session.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("composite failure rate = %v", out.FailureRate)
	}
	if len(out.BugNodes) < 2 {
		t.Fatalf("composite carries %d defect sites (%v); want both defects",
			len(out.BugNodes), out.BugDisplays)
	}
	if !out.BugInSlice {
		t.Fatalf("no composite defect site in slice (selected %v)", out.SelectedOutputs)
	}

	// Re-run: every stage must come from cache (pointer identity).
	again, err := session.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Refine != out.Refine || again.Metagraph != out.Metagraph || again.Slice != out.Slice {
		t.Fatal("re-run did not hit the stage caches")
	}

	// Cache keys derive from injection fingerprints, not display
	// names: a renamed but identical scenario shares everything.
	renamed := NewScenario("SOMETHING-ELSE", opts, WsubDefect(), GoffGratchDefect())
	out2, err := session.Run(ctx, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Refine != out.Refine || out2.Metagraph != out.Metagraph {
		t.Fatal("renamed identical scenario missed the caches")
	}
	if out2.Name != "SOMETHING-ELSE" {
		t.Fatalf("outcome name = %q", out2.Name)
	}

	fp1, err := ScenarioFingerprint(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := ScenarioFingerprint(cfg, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprints differ for identical injections:\n%s\n%s", fp1, fp2)
	}
	single, err := ScenarioFingerprint(cfg, WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	if single == fp1 {
		t.Fatal("single- and two-defect scenarios share a fingerprint")
	}
}

// TestConflictingInjectionsRejected: contradictory compositions fail
// with the typed error before any model work happens.
func TestConflictingInjectionsRejected(t *testing.T) {
	ctx := context.Background()
	session := NewSession(CorpusConfig{AuxModules: 25, Seed: 2})
	cases := []Scenario{
		NewScenario("two-prng", ScenarioOptions{}, MersennePRNG(), MersennePRNG()),
		NewScenario("two-fma", ScenarioOptions{}, EnableFMA(), EnableFMA("micro_mg")),
		NewScenario("same-param", ScenarioOptions{},
			PerturbParameter("turbcoef", 0.02), PerturbParameter("turbcoef", 0.03)),
		NewScenario("same-assign", ScenarioOptions{}, WsubDefect(), WsubDefect()),
	}
	for _, sc := range cases {
		if _, err := session.Run(ctx, sc); !errors.Is(err, ErrConflictingInjections) {
			t.Errorf("%s: err = %v, want ErrConflictingInjections", sc.Name(), err)
		}
	}
}

// TestUnknownSubprogramRejected: an injection over a nonexistent
// target surfaces corpus.ErrUnknownSubprogram through the session.
func TestUnknownSubprogramRejected(t *testing.T) {
	ctx := context.Background()
	session := NewSession(CorpusConfig{AuxModules: 25, Seed: 2})
	sc := NewScenario("ghost", ScenarioOptions{},
		ScaleAssignment{Subprogram: "no_such_sub", Var: "x", Factor: 1.5})
	if _, err := session.Run(ctx, sc); !errors.Is(err, ErrUnknownSubprogram) {
		t.Fatalf("err = %v, want ErrUnknownSubprogram", err)
	}
}

// cancelingSampler cancels its context the first time refinement
// starts, forcing a deterministic mid-pipeline cancellation.
type cancelingSampler struct {
	cancel context.CancelFunc
	inner  Sampler
}

func (c cancelingSampler) Kind() string { return "cancel-on-refine" }

func (c cancelingSampler) Refine(in experiments.RefineInput) (*RefineResult, error) {
	c.cancel()
	return c.inner.Refine(in)
}

// TestRunAllCancellationMidRun is the cancellation acceptance test: a
// context canceled mid-RunAll surfaces ErrCanceled (and the context's
// own error) promptly, the canceled result is not memoized, and the
// session stays fully reusable afterwards. Run under -race in CI.
func TestRunAllCancellationMidRun(t *testing.T) {
	cfg := CorpusConfig{AuxModules: 25, Seed: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	session := NewSession(cfg,
		WithEnsembleSize(16), WithExpSize(4), WithWorkers(3),
		WithSampler(cancelingSampler{cancel: cancel, inner: ValueSampling(0)}))

	_, err := session.RunAll(ctx, Experiments())
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through the wrapper", err)
	}

	// The session must remain reusable with a fresh context: the
	// canceled refinement was not memoized, and the cached corpus,
	// fingerprint and metagraphs still serve. (The sampler's cancel
	// func is idempotent — it only affects the original context.)
	got, err := session.Run(context.Background(), WSUBBUG)
	if err != nil {
		t.Fatalf("session not reusable after cancellation: %v", err)
	}
	fresh := NewSession(cfg, WithEnsembleSize(16), WithExpSize(4))
	want, err := fresh.Run(context.Background(), WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(summarize(got), summarize(want)) {
		t.Fatalf("post-cancellation outcome diverges:\nreused: %+v\nfresh:  %+v",
			summarize(got), summarize(want))
	}
}

// TestSessionContextCancellationPerCall: a canceled per-call context
// aborts stages with the typed error.
func TestSessionContextCancellationPerCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	session := NewSession(CorpusConfig{AuxModules: 30, Seed: 2})
	_, err := session.Run(ctx, WSUBBUG)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled/context.Canceled", err)
	}
}

// TestSessionContextDeadlinePerCall: an expired per-call deadline
// aborts stages with the typed error too.
func TestSessionContextDeadlinePerCall(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	session := NewSession(CorpusConfig{AuxModules: 30, Seed: 2})
	_, err := session.Run(ctx, WSUBBUG)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled/context.DeadlineExceeded", err)
	}
}

// TestSessionTable1 shares the session's ensemble and metagraph with
// the selective-FMA study.
func TestSessionTable1(t *testing.T) {
	ctx := context.Background()
	session := NewSession(CorpusConfig{AuxModules: 25, Seed: 2},
		WithEnsembleSize(20), WithExpSize(4))
	rows, err := session.Table1(ctx, Table1Setup{ExpSize: 3, TopK: 5, RandomSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Enabled-everywhere must fail far more often than
	// disabled-everywhere (the Table 1 shape).
	if rows[0].FailureRate < rows[len(rows)-1].FailureRate {
		t.Fatalf("table shape wrong: %+v", rows)
	}
}

func TestAllExperimentsIncludesSupplement(t *testing.T) {
	all := AllExperiments()
	if len(all) != 8 {
		t.Fatalf("all experiments = %d", len(all))
	}
	names := map[string]bool{}
	for _, s := range all {
		names[s.Name()] = true
	}
	for _, want := range []string{"AVX2-FULL", "LANDBUG"} {
		if !names[want] {
			t.Fatalf("missing supplement scenario %s", want)
		}
	}
}
