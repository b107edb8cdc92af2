// Package corpus synthesizes the CESM-like FortLite source tree the
// reproduction runs on. It stands in for the ~660k coverage-filtered
// lines of CAM/CESM Fortran (paper §4): a compact, hand-modeled core —
// with the paper's actual module and variable names (microp_aero's
// wsub, micro_mg_tend's dum/ratio/tlat/nctend/..., the Goff-Gratch
// saturation vapor pressure function, the dyn3 hydrostatic kernel, the
// PRNG-driven longwave/shortwave cloud modules) — surrounded by a
// configurable number of generated auxiliary physics/diagnostic/land
// modules wired into a hub-heavy dependency structure so the digraph's
// degree distribution is power-law-ish (Figure 4).
//
// The generator is deterministic: the same Config yields byte-identical
// source, so the metagraph and the interpreter always agree.
package corpus

import (
	"fmt"
	"strings"

	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/lru"
	"github.com/climate-rca/rca/internal/rng"
)

// Config sizes and parameterizes the corpus.
type Config struct {
	// AuxModules is the number of generated auxiliary modules (beyond
	// the ~15 hand-modeled core modules). The paper's quotient graph
	// has 561 modules; Default() uses a CI-friendly size and benches
	// scale up.
	AuxModules int
	// VarsPerAux is the mean number of variables per auxiliary module.
	AuxVars int
	// Seed drives the deterministic structure generator.
	Seed uint64
	// FMAGain scales the fused-multiply-add-sensitive kernel in
	// micro_mg_tend (the deterministic cancellation path that makes
	// FMA statistically visible, §6.4). Zero selects the default.
	FMAGain float64
	// AuxFMAGain scales the weak FMA-sensitive kernels distributed in
	// auxiliary modules. Zero selects the default.
	AuxFMAGain float64
	// TurbCoef couples the chaotic internal-variability field into the
	// temperature tendency (sets the ensemble spread). Zero selects
	// the default.
	TurbCoef float64
	// UnusedModules adds modules that are never called by the driver
	// (grist for the coverage filter). Defaults to AuxModules/4.
	UnusedModules int
	// UnusedSubprograms adds never-called subprograms to auxiliary
	// modules (the subprogram-level coverage reduction). Expressed
	// per-module probability in percent [0,100]. Default 40.
	UnusedSubprogramPct int
}

// Default returns the CI-sized configuration.
func Default() Config {
	return Config{AuxModules: 100, AuxVars: 10, Seed: 1}
}

// PaperScale returns a corpus sized like the paper's quotient graph
// (561 modules).
func PaperScale() Config {
	return Config{AuxModules: 540, AuxVars: 12, Seed: 1}
}

func (c Config) withDefaults() Config {
	if c.AuxModules <= 0 {
		c.AuxModules = 100
	}
	if c.AuxVars <= 0 {
		c.AuxVars = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FMAGain == 0 {
		c.FMAGain = 3000.0
	}
	if c.AuxFMAGain == 0 {
		c.AuxFMAGain = 0.01
	}
	if c.TurbCoef == 0 {
		c.TurbCoef = 0.01
	}
	if c.UnusedModules == 0 {
		c.UnusedModules = c.AuxModules / 4
	}
	if c.UnusedSubprogramPct == 0 {
		c.UnusedSubprogramPct = 40
	}
	return c
}

// File is one synthesized source file.
type File struct {
	Name   string // e.g. "micro_mg.F90"
	Source string
	// Component tags the model component ("cam", "lnd", "share") for
	// the CAM-restriction filter the paper applies in §6.
	Component string
	// Core marks hand-modeled core modules (compact but central).
	Core bool
}

// Corpus is the generated source tree plus its manifest.
type Corpus struct {
	Files []File
	cfg   Config
	// DriverModule / StepSub / InitSub name the model entry points.
	DriverModule string
	InitSub      string
	StepSub      string
	// OutputToInternal maps outfld labels to internal canonical names
	// (ground truth for Table 2; the metagraph re-derives it).
	OutputToInternal map[string]string
	// ComponentOf maps module name to component.
	ComponentOf map[string]string
	// AuxCalled lists auxiliary modules actually invoked by the driver.
	AuxCalled []string
}

// Generate synthesizes the corpus for a configuration.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	c := &Corpus{
		cfg:              cfg,
		DriverModule:     "cam_driver",
		InitSub:          "cam_init",
		StepSub:          "cam_step",
		OutputToInternal: make(map[string]string),
		ComponentOf:      make(map[string]string),
	}
	c.addCore()
	c.addAux()
	c.addDriver()
	return c
}

// Config returns the (defaulted) generation configuration.
func (c *Corpus) Config() Config { return c.cfg }

func (c *Corpus) add(name, component string, core bool, src string) {
	modName := strings.TrimSuffix(name, ".F90")
	c.Files = append(c.Files, File{Name: name, Source: src, Component: component, Core: core})
	c.ComponentOf[modName] = component
}

// parseCache memoizes per-file parses by exact source text. Patched
// corpora differ from the clean build in one file, so the other ~hundred
// parse once per process instead of once per source fingerprint; parsed
// modules are immutable (every consumer — metagraph, coverage, both
// execution engines — reads the AST only), so sharing them is safe.
// Every new corpus configuration brings new files, so the cache is an
// LRU bound rather than a cap: a long-lived process keeps its working
// set (the bound exceeds the 561-file paper-scale corpus) and sheds
// corpora it stopped using.
var parseCache = lru.New[string, []*fortran.Module](parseCacheMax)

const parseCacheMax = 1024

func parseFileCached(src string) ([]*fortran.Module, error) {
	if ms, ok := parseCache.Get(src); ok {
		return ms, nil
	}
	ms, err := fortran.ParseFile(src)
	if err != nil {
		return nil, err
	}
	// A concurrent first parse may have won the race: Add returns its
	// modules so identical sources share pointer identity.
	return parseCache.Add(src, ms), nil
}

// Parse parses every file into FortLite modules, in generation order
// (which is a valid use-dependency order). Per-file results are shared
// through a process-wide content-addressed cache.
func (c *Corpus) Parse() ([]*fortran.Module, error) {
	var mods []*fortran.Module
	for _, f := range c.Files {
		ms, err := parseFileCached(f.Source)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", f.Name, err)
		}
		mods = append(mods, ms...)
	}
	return mods, nil
}

// Modules returns the module names in generation order.
func (c *Corpus) Modules() []string {
	out := make([]string, 0, len(c.Files))
	for _, f := range c.Files {
		out = append(out, strings.TrimSuffix(f.Name, ".F90"))
	}
	return out
}

// LinesOf returns the line count per module (the "largest modules by
// lines of code" ranking in Table 1).
func (c *Corpus) LinesOf() map[string]int {
	out := make(map[string]int, len(c.Files))
	for _, f := range c.Files {
		out[strings.TrimSuffix(f.Name, ".F90")] = strings.Count(f.Source, "\n")
	}
	return out
}

// IsCAM reports whether a module belongs to the atmosphere component.
func (c *Corpus) IsCAM(module string) bool {
	return c.ComponentOf[module] == "cam"
}

// auxRand builds the deterministic structure generator.
func (c *Corpus) auxRand() *rng.LCG { return rng.NewLCG(c.cfg.Seed) }
