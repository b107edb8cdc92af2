package model

import (
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// BenchmarkRunBytecode / BenchmarkRunTree time one full 9-step
// integration per engine on the bench-sized corpus — the per-member
// cost every ensemble pays.
func benchRunner(b *testing.B, newRunner func(*corpus.Corpus) (*Runner, error)) {
	b.Helper()
	r, err := newRunner(corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2}))
	if err != nil {
		b.Fatal(err)
	}
	if !r.tree {
		r.Program() // compile outside the timed loop
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(RunConfig{Member: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBytecode(b *testing.B) { benchRunner(b, NewRunner) }
func BenchmarkRunTree(b *testing.B)     { benchRunner(b, NewTreeRunner) }

// BenchmarkBuildRunner times corpus parse + bytecode compile — the
// per-source-fingerprint build cost the Session amortizes.
func BenchmarkBuildRunner(b *testing.B) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(c)
		if err != nil {
			b.Fatal(err)
		}
		r.Program()
	}
}
