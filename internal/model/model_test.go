package model

import (
	"math"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/stats"
)

func runnerFor(t *testing.T, cfg corpus.Config) *Runner {
	t.Helper()
	r, err := NewRunner(corpus.Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestModelRunsAndIsFinite(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 30, Seed: 2})
	res, err := r.Run(RunConfig{Member: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Means) < 25 {
		t.Fatalf("only %d outputs captured", len(res.Means))
	}
	for k, v := range res.Means {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("output %s = %v", k, v)
		}
	}
	// Physical sanity: T should stay near its initial range.
	if tm := res.Means["T"]; tm < 200 || tm > 350 {
		t.Fatalf("T mean = %v", tm)
	}
}

func TestDeterministicGivenMember(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 20, Seed: 2})
	a, err := r.Run(RunConfig{Member: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(RunConfig{Member: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Means {
		if a.Means[k] != b.Means[k] {
			t.Fatalf("nondeterministic output %s", k)
		}
	}
}

func TestEnsembleSpreadExistsAndIsSmall(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 20, Seed: 2})
	ens, err := r.Ensemble(8, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spreadT := sampleOf(ens, "T")
	sd := stats.Std(spreadT)
	if sd == 0 {
		t.Fatal("no ensemble spread in T")
	}
	if sd/math.Abs(stats.Mean(spreadT)) > 1e-3 {
		t.Fatalf("T spread suspiciously large: sd=%v", sd)
	}
	// wsub must also vary (via the wpert perturbation).
	if stats.Std(sampleOf(ens, "WSUB")) == 0 {
		t.Fatal("no spread in WSUB")
	}
}

func sampleOf(runs []ect.RunOutput, key string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[key]
	}
	return out
}

func TestTraceCoversSubprograms(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	seen := map[string]bool{}
	_, err := r.Run(RunConfig{
		StopAfter: 2,
		Trace:     func(mod, sub string) { seen[mod+"::"+sub] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cam_driver::cam_init", "cam_driver::cam_step",
		"micro_mg::micro_mg_tend", "dyn3::dyn3_hydro",
	} {
		if !seen[want] {
			t.Fatalf("trace missing %s (have %d entries)", want, len(seen))
		}
	}
	// Unused subprograms must not appear.
	for k := range seen {
		if k == "microp_aero::aero_unused" {
			t.Fatalf("unused subprogram traced: %s", k)
		}
	}
}

func TestKernelWatchCapturesMicroMG(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 10, Seed: 2})
	res, err := r.Run(RunConfig{KernelWatch: "micro_mg::micro_mg_tend"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"dum", "ratio", "tlat", "nctend", "qvlat", "nitend"} {
		if len(res.Engine.Captured().Kernel[v]) == 0 {
			t.Fatalf("kernel variable %s not captured", v)
		}
	}
}

func TestFMAChangesMicroMGKernel(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 10, Seed: 2})
	off, err := r.Run(RunConfig{KernelWatch: "micro_mg::micro_mg_tend"})
	if err != nil {
		t.Fatal(err)
	}
	on, err := r.Run(RunConfig{
		KernelWatch: "micro_mg::micro_mg_tend",
		FMA:         func(string) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := stats.NormalizedRMSDiff(off.Engine.Captured().Kernel["tlat"], on.Engine.Captured().Kernel["tlat"])
	if !(diff > 1e-12) {
		t.Fatalf("tlat normalized RMS diff = %v; want > 1e-12", diff)
	}
}

func TestRunBatchMeansMatchesSolo(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 25, Seed: 4})
	members := []int{0, 1, 2, 3, 4, 5, 1000, 1001}
	batched, err := r.RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(members) {
		t.Fatalf("got %d outputs, want %d", len(batched), len(members))
	}
	for i, m := range members {
		solo, err := r.Run(RunConfig{Member: m})
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(solo.Means) {
			t.Fatalf("member %d: %d outputs vs solo %d", m, len(batched[i]), len(solo.Means))
		}
		for k, v := range solo.Means {
			bv, ok := batched[i][k]
			if !ok {
				t.Fatalf("member %d: output %s missing from batch", m, k)
			}
			if math.Float64bits(bv) != math.Float64bits(v) {
				t.Fatalf("member %d output %s: batch %v solo %v", m, k, bv, v)
			}
		}
	}
}

func TestRunBatchMeansVariants(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 25, Seed: 4})
	cfgs := map[string]RunConfig{
		"mersenne":  {RNG: RNGMersenne},
		"stopafter": {StopAfter: 2},
		"fma":       {FMA: func(string) bool { return true }},
	}
	for name, cfg := range cfgs {
		members := []int{2, 7, 11}
		batched, err := r.RunBatchMeans(cfg, members)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, m := range members {
			c := cfg
			c.Member = m
			solo, err := r.Run(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k, v := range solo.Means {
				if math.Float64bits(batched[i][k]) != math.Float64bits(v) {
					t.Fatalf("%s member %d output %s: batch %v solo %v", name, m, k, batched[i][k], v)
				}
			}
		}
	}
}

// TestRunBatchMeansTreeFallback pins that a NewTreeRunner never runs
// the VM: its RunBatchMeans integrates every member solo on the tree
// walker (so no program is ever compiled), bit-identical to the VM
// runner's lockstep batch.
func TestRunBatchMeansTreeFallback(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 20, Seed: 2})
	tree, err := NewTreeRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1}
	got, err := tree.RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	if tree.prog != nil {
		t.Fatal("tree runner compiled a bytecode program")
	}
	want, err := runnerFor(t, corpus.Config{AuxModules: 20, Seed: 2}).RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		for k, v := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(v) {
				t.Fatalf("member %d output %s: tree %v, batched VM %v", m, k, got[i][k], v)
			}
		}
	}
}
