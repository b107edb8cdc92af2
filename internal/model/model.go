// Package model ties the synthetic corpus to the execution engine: it
// builds an engine instance from a Corpus, applies CESM-style
// initial-condition perturbations, advances the model, and harvests
// the step-9 output global means the consistency test consumes
// (UF-CAM-ECT evaluates at time step nine, paper §2.1).
//
// Every integration runs on the bytecode register VM
// (internal/bytecode, compiled once per Runner and cached); ensembles
// run in lockstep on its batched form. The tree-walking interpreter
// (internal/interp) is the VM's reference oracle: NewTreeRunner builds
// a Runner on it for the differential tests and nothing else.
package model

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/bytecode"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/lru"
	"github.com/climate-rca/rca/internal/rng"
)

// Steps is the UF-ECT evaluation horizon.
const Steps = 9

// RNGKind selects the model's random_number generator.
type RNGKind int

// Generator choices.
const (
	RNGDefault RNGKind = iota // KISS, the CESM-like default
	RNGMersenne
)

// RunConfig configures one model integration.
type RunConfig struct {
	Ncol int // columns; 0 = 16
	// Member seeds the initial-condition perturbation (ensemble member
	// id or experimental run id).
	Member int
	// PertScale is the absolute temperature perturbation magnitude.
	// 0 selects the default 1e-9 (CESM uses O(1e-14) relative, which
	// at T≈280 is the same order of magnitude).
	PertScale float64
	// RNG picks the random_number generator (RAND-MT swaps this).
	RNG RNGKind
	// RNGSeed seeds the model PRNG; it is deliberately identical for
	// every member (CESM's PRNG streams are reproducible), so PRNG
	// values are not a source of ensemble spread.
	RNGSeed uint64
	// FMA enables fused multiply-add per module (nil = all disabled).
	FMA func(module string) bool
	// Trace receives subprogram entries (coverage runs).
	Trace func(module, subprogram string)
	// KernelWatch is the module::subprogram to snapshot (KGen runs).
	KernelWatch string
	// SnapshotAll captures every variable's final values keyed by
	// metagraph node key — the runtime-sampling instrumentation.
	SnapshotAll bool
	// StopAfter limits the number of steps (0 = full 9 steps); the
	// coverage filter runs only 2 steps, per §2.1.
	StopAfter int
}

// Result is one completed integration.
type Result struct {
	// Means maps output label to global mean at the final step.
	Means ect.RunOutput
	// Engine is the finished execution engine (exposes the captured
	// Outputs/Kernel/AllValues through Captured()).
	Engine interp.Engine
}

// Runner caches the parsed corpus and its compiled program for
// repeated integrations. It is safe for concurrent use: ensemble
// members fan out over one Runner.
type Runner struct {
	Corpus  *corpus.Corpus
	Modules []*fortran.Module

	tree bool // NewTreeRunner: integrate on the reference interpreter

	progMu sync.Mutex
	prog   *bytecode.Program
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewRunner parses the corpus once for integrations on the bytecode
// VM.
func NewRunner(c *corpus.Corpus) (*Runner, error) {
	mods, err := c.Parse()
	if err != nil {
		return nil, err
	}
	return &Runner{Corpus: c, Modules: mods}, nil
}

// NewTreeRunner is NewRunner on the tree-walking interpreter: every
// integration, RunBatchMeans included, runs solo through
// internal/interp. It is the VM's reference oracle only — the
// differential tests pin VM outputs against it and BenchmarkRunTree
// times it; no production path builds one.
func NewTreeRunner(c *corpus.Corpus) (*Runner, error) {
	r, err := NewRunner(c)
	if err != nil {
		return nil, err
	}
	r.tree = true
	return r, nil
}

// progCache shares compiled programs process-wide, keyed by module
// identity: the parse cache hands identical source trees the same
// *fortran.Module pointers, so a restarted Session (or a parallel one
// over the same corpus configuration) reuses the compiled artifact
// instead of recompiling. Programs are immutable, so sharing is safe.
// Each entry retains the module pointers its key was built from —
// that keeps every keyed address alive, so a recycled allocation can
// never alias a stored key. The cache is an LRU bound, so a
// long-lived process sheds the programs of corpora it stopped using;
// an evicted program is simply compiled again on next use.
type progEntry struct {
	mods []*fortran.Module
	prog *bytecode.Program
}

var progCache = lru.New[string, *progEntry](progCacheMax)

const progCacheMax = 32

func progKey(mods []*fortran.Module) string {
	var b strings.Builder
	for _, m := range mods {
		fmt.Fprintf(&b, "%p;", m)
	}
	return b.String()
}

// Program returns the compiled bytecode program, compiling on first
// use. It is the Session's cached build artifact: every scenario
// sharing this Runner's source fingerprint reuses it (and, through the
// process-wide layer, so does every other Runner over an identical
// source tree).
func (r *Runner) Program() *bytecode.Program {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if r.prog != nil {
		r.hits.Add(1)
		return r.prog
	}
	key := progKey(r.Modules)
	if e, ok := progCache.Get(key); ok {
		r.hits.Add(1)
		r.prog = e.prog
		return r.prog
	}
	r.misses.Add(1)
	r.prog = r.shareProgram(key, bytecode.Compile(r.Modules))
	return r.prog
}

// shareProgram registers p in the process-global cache under key and
// returns the program the cache holds for it (p, or one a concurrent
// sibling registered first).
func (r *Runner) shareProgram(key string, p *bytecode.Program) *bytecode.Program {
	e := &progEntry{mods: append([]*fortran.Module(nil), r.Modules...), prog: p}
	return progCache.Add(key, e).prog
}

// SetProgram installs a precompiled program (typically decoded from
// the artifact store) as this Runner's bytecode build artifact, so
// integrations skip compilation entirely. A program the Runner already
// compiled wins — the installed one must describe the same sources,
// and the compiled one is already shared process-wide. The program is
// registered in the process-global cache so sibling Runners over an
// identical parse reuse it too.
func (r *Runner) SetProgram(p *bytecode.Program) {
	if p == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if r.prog != nil {
		return
	}
	r.prog = r.shareProgram(progKey(r.Modules), p)
}

// CompileStats reports program-cache hits and misses (rcad's /metrics
// surfaces the session-wide aggregate).
func (r *Runner) CompileStats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// engineFor builds the engine instance for one integration.
func (r *Runner) engineFor(cfg RunConfig, src rng.Source) (interp.Engine, error) {
	icfg := interp.Config{
		Ncol:        cfg.Ncol,
		RNG:         src,
		FMA:         cfg.FMA,
		Trace:       cfg.Trace,
		KernelWatch: cfg.KernelWatch,
		SnapshotAll: cfg.SnapshotAll,
	}
	if r.tree {
		return interp.NewMachine(r.Modules, icfg)
	}
	return r.Program().NewVM(icfg)
}

// Run integrates the model per cfg and returns the step-9 output
// means.
func (r *Runner) Run(cfg RunConfig) (*Result, error) {
	if cfg.Ncol == 0 {
		cfg.Ncol = 16
	}
	if cfg.PertScale == 0 {
		cfg.PertScale = 1e-9
	}
	if cfg.RNGSeed == 0 {
		cfg.RNGSeed = 777
	}
	var src rng.Source
	switch cfg.RNG {
	case RNGMersenne:
		src = rng.NewMT19937(cfg.RNGSeed)
	default:
		src = rng.NewKISS(cfg.RNGSeed)
	}
	eng, err := r.engineFor(cfg, src)
	if err != nil {
		return nil, err
	}
	if err := eng.Call(r.Corpus.DriverModule, r.Corpus.InitSub); err != nil {
		return nil, fmt.Errorf("model: init: %w", err)
	}
	if err := perturb(eng, cfg); err != nil {
		return nil, err
	}
	steps := Steps
	if cfg.StopAfter > 0 && cfg.StopAfter < Steps {
		steps = cfg.StopAfter
	}
	for s := 0; s < steps; s++ {
		if err := eng.Call(r.Corpus.DriverModule, r.Corpus.StepSub); err != nil {
			return nil, fmt.Errorf("model: step %d: %w", s+1, err)
		}
	}
	if cfg.SnapshotAll {
		eng.SnapshotModuleVars()
	}
	return &Result{Means: eng.Captured().OutputMeans(), Engine: eng}, nil
}

// RunBatchMeans integrates a set of members in lockstep on one
// batched VM (internal/bytecode.BatchVM) and returns their step-9
// output means in member order — bit-identical to running each member
// through Run. Members share everything except the perturbation seed,
// so the lanes execute the same instruction stream and diverge only at
// data-dependent branches. Configurations the batched engine cannot
// express (Trace callbacks, a NewTreeRunner reference) and
// single-member sets fall back to solo runs. On failure the error of
// the lowest failing member is returned, wrapped exactly as Run wraps
// it.
func (r *Runner) RunBatchMeans(base RunConfig, members []int) ([]ect.RunOutput, error) {
	if len(members) == 0 {
		return nil, nil
	}
	if r.tree || base.Trace != nil || len(members) == 1 {
		out := make([]ect.RunOutput, len(members))
		for i, m := range members {
			cfg := base
			cfg.Member = m
			res, err := r.Run(cfg)
			if err != nil {
				return nil, err
			}
			out[i] = res.Means
		}
		return out, nil
	}
	cfg := base
	if cfg.Ncol == 0 {
		cfg.Ncol = 16
	}
	if cfg.PertScale == 0 {
		cfg.PertScale = 1e-9
	}
	if cfg.RNGSeed == 0 {
		cfg.RNGSeed = 777
	}
	nl := len(members)
	rngs := make([]rng.Source, nl)
	for i := range rngs {
		switch cfg.RNG {
		case RNGMersenne:
			rngs[i] = rng.NewMT19937(cfg.RNGSeed)
		default:
			rngs[i] = rng.NewKISS(cfg.RNGSeed)
		}
	}
	vm, err := r.Program().NewBatchVM(interp.Config{
		Ncol:        cfg.Ncol,
		FMA:         cfg.FMA,
		KernelWatch: cfg.KernelWatch,
		SnapshotAll: cfg.SnapshotAll,
	}, rngs)
	if err != nil {
		return nil, err
	}
	// wrap holds each lane's first error with Run's phase wrapping; a
	// lane's sticky VM error freezes it, so later phases cannot
	// overwrite an earlier failure.
	wrap := make([]error, nl)
	mark := func(f func(error) error) {
		for l, e := range vm.LaneErrs() {
			if e != nil && wrap[l] == nil {
				wrap[l] = f(e)
			}
		}
	}
	vm.CallAll(r.Corpus.DriverModule, r.Corpus.InitSub)
	mark(func(e error) error { return fmt.Errorf("model: init: %w", e) })
	for l, m := range members {
		if wrap[l] != nil {
			continue
		}
		c := cfg
		c.Member = m
		if err := perturbLane(vm, l, c); err != nil {
			wrap[l] = err
		}
	}
	steps := Steps
	if cfg.StopAfter > 0 && cfg.StopAfter < Steps {
		steps = cfg.StopAfter
	}
	for s := 0; s < steps; s++ {
		vm.CallAll(r.Corpus.DriverModule, r.Corpus.StepSub)
		step := s + 1
		mark(func(e error) error { return fmt.Errorf("model: step %d: %w", step, e) })
	}
	if cfg.SnapshotAll {
		vm.SnapshotModuleVarsAll()
	}
	for _, e := range wrap {
		if e != nil {
			return nil, e
		}
	}
	out := make([]ect.RunOutput, nl)
	for l := range members {
		out[l] = vm.LaneResults(l).OutputMeans()
	}
	return out, nil
}

// perturb applies the member-specific initial-condition perturbation:
// a random temperature field perturbation (CESM pertlim-style) plus a
// small perturbation of the near-isolated wpert aerosol field so every
// output has nonzero ensemble variance.
func perturb(eng interp.Engine, cfg RunConfig) error {
	gen := rng.NewLCG(uint64(cfg.Member)*2654435761 + 97)
	t, ok := eng.ModuleArray("physics_types", "state", "t")
	if !ok {
		return fmt.Errorf("model: state variable missing")
	}
	for i := range t {
		t[i] += cfg.PertScale * gauss(gen)
	}
	if wp, ok := eng.ModuleArray("microp_aero", "wpert"); ok {
		for i := range wp {
			wp[i] += 1e-3 * gauss(gen)
		}
	}
	return nil
}

// perturbLane applies perturb's member-specific perturbation to one
// lane of a batched VM through strided LaneSlice views — the same LCG
// stream, draw order and target fields, so the lane's initial state is
// bit-identical to a solo run of that member.
func perturbLane(vm *bytecode.BatchVM, lane int, cfg RunConfig) error {
	gen := rng.NewLCG(uint64(cfg.Member)*2654435761 + 97)
	t, ok := vm.LaneArray(lane, "physics_types", "state", "t")
	if !ok {
		return fmt.Errorf("model: state variable missing")
	}
	for i, n := 0, t.Len(); i < n; i++ {
		t.Add(i, cfg.PertScale*gauss(gen))
	}
	if wp, ok := vm.LaneArray(lane, "microp_aero", "wpert"); ok {
		for i, n := 0, wp.Len(); i < n; i++ {
			wp.Add(i, 1e-3*gauss(gen))
		}
	}
	return nil
}

// gauss draws a standard normal via Box-Muller.
func gauss(g *rng.LCG) float64 {
	u1 := g.Float64()
	for u1 == 0 {
		u1 = g.Float64()
	}
	u2 := g.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Ensemble integrates members 0..n-1 with the base configuration.
func (r *Runner) Ensemble(n int, base RunConfig) ([]ect.RunOutput, error) {
	out := make([]ect.RunOutput, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Member = i
		res, err := r.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Means)
	}
	return out, nil
}

// ExperimentalSet integrates members offset..offset+n-1 (disjoint from
// the ensemble's perturbation seeds).
func (r *Runner) ExperimentalSet(n, offset int, base RunConfig) ([]ect.RunOutput, error) {
	out := make([]ect.RunOutput, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Member = offset + i
		res, err := r.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Means)
	}
	return out, nil
}
