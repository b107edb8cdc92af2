package experiments_test

import (
	"context"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/experiments"
)

// equivSession builds a small-corpus session with an aggressive
// parallel fan-out, so the equivalence holds under concurrent
// scheduling too (run with -race in CI). Pass experiments.WithTreeEngine
// for the tree-walking reference.
func equivSession(opts ...rca.Option) *rca.Session {
	return rca.NewSession(rca.CorpusConfig{AuxModules: 16, Seed: 4},
		append([]rca.Option{rca.WithEnsembleSize(14), rca.WithExpSize(5),
			rca.WithParallelism(8), rca.WithWorkers(4)}, opts...)...)
}

// TestEnginesBitIdenticalAcrossCatalog is the deterministic-equivalence
// pin for the execution engines: Session.RunAll over the full §6 + §8
// scenario catalog must produce byte-identical FormatOutcome renderings
// on the bytecode VM and the tree walker. The paper's verdicts depend
// on exact floating-point semantics (FMA fusion, PRNG sequences,
// evaluation order), so nothing short of byte equality is acceptable.
func TestEnginesBitIdenticalAcrossCatalog(t *testing.T) {
	ctx := context.Background()
	scs := rca.AllExperiments()

	tree, err := equivSession(experiments.WithTreeEngine()).RunAll(ctx, scs)
	if err != nil {
		t.Fatalf("tree engine: %v", err)
	}
	vm, err := equivSession().RunAll(ctx, scs)
	if err != nil {
		t.Fatalf("bytecode engine: %v", err)
	}
	if len(tree) != len(vm) {
		t.Fatalf("outcome counts differ: %d vs %d", len(tree), len(vm))
	}
	for i := range tree {
		to, vo := rca.FormatOutcome(tree[i]), rca.FormatOutcome(vm[i])
		if to != vo {
			t.Errorf("%s: FormatOutcome bytes differ\n--- tree ---\n%s--- bytecode ---\n%s",
				scs[i].Name(), to, vo)
		}
	}
}

// TestEnginesTable1Identical extends the pin to the selective-FMA
// study: FormatTable1 bytes must match across engines.
func TestEnginesTable1Identical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	setup := rca.Table1Setup{ExpSize: 3, TopK: 4, RandomSamples: 2}

	rowsTree, err := equivSession(experiments.WithTreeEngine()).Table1(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	rowsVM, err := equivSession().Table1(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	if rca.FormatTable1(rowsTree) != rca.FormatTable1(rowsVM) {
		t.Fatalf("Table1 bytes differ:\n--- tree ---\n%s--- bytecode ---\n%s",
			rca.FormatTable1(rowsTree), rca.FormatTable1(rowsVM))
	}
}
