package experiments_test

import (
	"context"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/experiments"
)

// TestBatchedCatalogBytesIdentical pins the batched execution mode's
// determinism contract at the outermost boundary: running catalog
// scenarios with members batched onto lockstep struct-of-arrays VMs
// (the DefaultBatch width) must produce byte-identical FormatOutcome
// reports at every parallelism level — and identical to the solo-VM
// reference (WithBatch(1)). Under -race this doubles as the data-race
// check for the batched worker pools.
func TestBatchedCatalogBytesIdentical(t *testing.T) {
	cfg := rca.CorpusConfig{AuxModules: 25, Seed: 2}
	scenarios := []rca.Scenario{rca.GOFFGRATCH, rca.WSUBBUG}
	ctx := context.Background()

	run := func(opts ...rca.Option) []string {
		t.Helper()
		base := []rca.Option{rca.WithEnsembleSize(12), rca.WithExpSize(4)}
		s := rca.NewSession(cfg, append(base, opts...)...)
		outs, err := s.RunAll(ctx, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		texts := make([]string, len(outs))
		for i, o := range outs {
			texts[i] = rca.FormatOutcome(o)
		}
		return texts
	}

	// Solo-VM sequential reference: every member on its own VM.
	ref := run(experiments.WithBatch(1), rca.WithParallelism(1))
	for _, par := range []int{1, 2, 8} {
		got := run(rca.WithParallelism(par)) // default batching on
		for i := range scenarios {
			if got[i] != ref[i] {
				t.Fatalf("%s: batched output at parallelism %d differs from solo reference\n--- batched ---\n%s--- solo ---\n%s",
					scenarios[i].Name(), par, got[i], ref[i])
			}
		}
	}
	// An odd batch width that doesn't divide the set sizes must agree too.
	got := run(experiments.WithBatch(5), rca.WithParallelism(3))
	for i := range scenarios {
		if got[i] != ref[i] {
			t.Fatalf("%s: batch width 5 output differs from solo reference", scenarios[i].Name())
		}
	}
}

// BenchmarkPipelineSixSpecsSessionUnbatched is the repo root's
// BenchmarkPipelineSixSpecsSession run on solo VMs (WithBatch(1)):
// every ensemble and experimental member integrates on its own VM. The
// gap between the two is the lockstep SoA batching win; outputs are
// pinned bit-identical, so both do exactly the same science.
func BenchmarkPipelineSixSpecsSessionUnbatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := rca.NewSession(rca.CorpusConfig{AuxModules: 40, Seed: 2},
			rca.WithEnsembleSize(30), rca.WithExpSize(8), experiments.WithBatch(1))
		if _, err := s.RunAll(context.Background(), rca.Experiments()); err != nil {
			b.Fatal(err)
		}
	}
}
