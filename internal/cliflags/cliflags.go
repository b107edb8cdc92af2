// Package cliflags binds the Session flags the rca and rcad commands
// share — corpus and ensemble sizing, the refinement sampler,
// parallelism and the fault plane — and turns them into rca options,
// so both commands accept and validate the same values.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/fault"
)

// SessionFlags holds the parsed values of the shared flags.
type SessionFlags struct {
	Aux       int
	Seed      uint64
	Ensemble  int
	Runs      int
	Sampler   string
	Parallel  int
	Faults    string
	FaultSeed uint64
}

// Bind registers the shared flags on fs; their values are filled in
// when fs is parsed.
func Bind(fs *flag.FlagSet) *SessionFlags {
	s := &SessionFlags{}
	fs.IntVar(&s.Aux, "aux", 100, "auxiliary module count (corpus scale)")
	fs.Uint64Var(&s.Seed, "seed", 1, "corpus structure seed")
	fs.IntVar(&s.Ensemble, "ensemble", 40, "ensemble size")
	fs.IntVar(&s.Runs, "runs", 10, "experimental run count")
	fs.StringVar(&s.Sampler, "sampler", "value", "refinement sampler: value (runtime snapshots) | reach (reachability simulation) | graded (magnitude-ranked, §6.3 extension)")
	fs.IntVar(&s.Parallel, "parallel", 0, "worker pool per investigation: ensemble members and graph kernels (0 = GOMAXPROCS); results are identical at every setting")
	fs.StringVar(&s.Faults, "faults", os.Getenv("RCAD_FAULTS"), "deterministic fault-injection spec, e.g. 'artifact.put:eio@0.1;worker.exec:crash@after=2' (default $RCAD_FAULTS; see DESIGN.md 'Failure model')")
	fs.Uint64Var(&s.FaultSeed, "fault-seed", defaultFaultSeed(), "fault-injection seed: same spec + seed replays the same fault sequence (default $RCAD_FAULT_SEED or 1)")
	return s
}

// defaultFaultSeed mirrors fault.FromEnv's seed resolution so the
// -fault-seed flag's default reflects RCAD_FAULT_SEED.
func defaultFaultSeed() uint64 {
	if s := os.Getenv("RCAD_FAULT_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// Corpus returns the corpus configuration -aux and -seed select.
func (s *SessionFlags) Corpus() rca.CorpusConfig {
	cfg := rca.DefaultCorpus()
	cfg.AuxModules = s.Aux
	cfg.Seed = s.Seed
	return cfg
}

// Options validates -sampler and returns the Session options the
// flags select.
func (s *SessionFlags) Options() ([]rca.Option, error) {
	sampler, err := parseSampler(s.Sampler)
	if err != nil {
		return nil, err
	}
	return []rca.Option{
		rca.WithEnsembleSize(s.Ensemble),
		rca.WithExpSize(s.Runs),
		rca.WithSampler(sampler),
		rca.WithParallelism(s.Parallel),
	}, nil
}

// parseSampler maps a -sampler value onto the strategy of that Kind.
func parseSampler(name string) (rca.Sampler, error) {
	for _, sm := range []rca.Sampler{rca.ValueSampling(0), rca.ReachSampling(), rca.GradedSampling()} {
		if sm.Kind() == name {
			return sm, nil
		}
	}
	return nil, fmt.Errorf("invalid -sampler %q (valid: value, reach, graded)", name)
}

// ArmFaults installs the -faults plane process-wide, seeded by
// -fault-seed. It reports whether a plane was armed; an empty -faults
// arms nothing.
func (s *SessionFlags) ArmFaults() (bool, error) {
	if s.Faults == "" {
		return false, nil
	}
	plane, err := fault.Parse(s.Faults, s.FaultSeed)
	if err != nil {
		return false, err
	}
	fault.SetGlobal(plane)
	return true, nil
}
