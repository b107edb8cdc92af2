package experiments

import (
	"context"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/binenc"
	"github.com/climate-rca/rca/internal/bytecode"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/coverage"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
)

// WithArtifacts attaches a content-addressed artifact store to the
// session: the expensive build artifacts — generated+patched corpora
// (per source fingerprint), compiled bytecode programs (per source
// fingerprint) and coverage-filtered metagraphs (per build
// fingerprint) — gain a write-through/read-back disk layer under
// their cache keys. A fresh session (or a fresh process) pointed at a
// warm store skips corpus generation, bytecode compilation and the
// coverage trace entirely; builds are deduplicated across every
// process sharing the store via its lock-file singleflight.
func WithArtifacts(store *artifact.Store) Option {
	return func(s *Session) { s.store = store }
}

// ArtifactStore returns the session's attached store, or nil.
func (s *Session) ArtifactStore() *artifact.Store { return s.store }

// corpusFor builds (or restores) the generated+patched corpus for one
// source fingerprint. With a store attached, the corpus is built at
// most once across every process sharing the store; without one, it is
// built in-process. Decode failures (a stale codec version survives on
// disk across a binary upgrade) rebuild cleanly and refresh the blob.
func (s *Session) corpusFor(ctx context.Context, key string, cfg corpus.Config, patches []corpus.Patch) (*corpus.Corpus, error) {
	build := func() (*corpus.Corpus, error) {
		base := corpus.Generate(cfg)
		if len(patches) > 0 {
			patched, err := corpus.Apply(base, patches...)
			if err != nil {
				return nil, err
			}
			base = patched
		}
		return base, nil
	}
	if s.store == nil {
		return build()
	}
	var fresh *corpus.Corpus
	data, built, err := s.store.GetOrBuild(ctx, artifact.ClassCorpus, key, func() ([]byte, error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		fresh = c
		return c.Encode()
	})
	if err != nil {
		return nil, err
	}
	if built {
		return fresh, nil
	}
	if c, err := corpus.Decode(data); err == nil {
		return c, nil
	}
	c, err := build()
	if err != nil {
		return nil, err
	}
	if enc, eerr := c.Encode(); eerr == nil {
		_ = s.store.Put(artifact.ClassCorpus, key, enc)
	}
	return c, nil
}

// restoreProgram gives the runner its compiled bytecode program from
// the store, or compiles and persists it — at most one compile per
// source fingerprint across every process on the store. Best-effort:
// any store trouble just leaves the runner to compile lazily as
// before.
func (s *Session) restoreProgram(ctx context.Context, key string, r *model.Runner) {
	if s.store == nil {
		return
	}
	data, built, err := s.store.GetOrBuild(ctx, artifact.ClassProgram, key, func() ([]byte, error) {
		return bytecode.EncodeProgram(r.Program())
	})
	if err != nil || built {
		return
	}
	if p, err := bytecode.DecodeProgram(data); err == nil {
		r.SetProgram(p)
		return
	}
	// Stale codec version on disk: recompile and refresh the blob.
	if enc, err := bytecode.EncodeProgram(r.Program()); err == nil {
		_ = s.store.Put(artifact.ClassProgram, key, enc)
	}
}

// compiledFor wraps compileStage with the store layer: the §4
// coverage report + metagraph artifact is keyed by the build
// fingerprint, so a warm store skips the two-step coverage trace and
// the metagraph construction.
func (s *Session) compiledFor(ctx context.Context, p *plan) (*Compiled, error) {
	build := func() (*Compiled, error) {
		b, err := s.buildsFor(ctx, p)
		if err != nil {
			return nil, err
		}
		return compileStage(b)
	}
	if s.store == nil {
		return build()
	}
	var fresh *Compiled
	data, built, err := s.store.GetOrBuild(ctx, artifact.ClassCompiled, p.buildKey(), func() ([]byte, error) {
		comp, err := build()
		if err != nil {
			return nil, err
		}
		fresh = comp
		return EncodeCompiled(comp)
	})
	if err != nil {
		return nil, err
	}
	if built {
		return fresh, nil
	}
	if comp, err := DecodeCompiled(data); err == nil {
		return comp, nil
	}
	comp, err := build()
	if err != nil {
		return nil, err
	}
	if enc, eerr := EncodeCompiled(comp); eerr == nil {
		_ = s.store.Put(artifact.ClassCompiled, p.buildKey(), enc)
	}
	return comp, nil
}

// compiledCodecVersion versions the Compiled artifact framing (the
// embedded metagraph payload carries its own codec version).
const compiledCodecVersion uint32 = 1

// EncodeCompiled serializes a §4 Compiled artifact (coverage report +
// metagraph) to the deterministic artifact format.
func EncodeCompiled(c *Compiled) ([]byte, error) {
	mg, err := c.Metagraph.Encode()
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter(len(mg) + 64)
	w.U32(compiledCodecVersion)
	w.Int(c.Coverage.ModulesBefore)
	w.Int(c.Coverage.ModulesAfter)
	w.Int(c.Coverage.SubprogramsBefore)
	w.Int(c.Coverage.SubprogramsAfter)
	w.Raw(mg)
	return w.Bytes(), nil
}

// DecodeCompiled reconstructs a Compiled artifact from EncodeCompiled
// bytes.
func DecodeCompiled(data []byte) (*Compiled, error) {
	r := binenc.NewReader(data)
	if v := r.U32(); v != compiledCodecVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, binenc.ErrMalformed
	}
	rep := coverage.Report{
		ModulesBefore:     r.Int(),
		ModulesAfter:      r.Int(),
		SubprogramsBefore: r.Int(),
		SubprogramsAfter:  r.Int(),
	}
	payload := r.Raw()
	if err := r.Done(); err != nil {
		return nil, err
	}
	mg, err := metagraph.Decode(payload)
	if err != nil {
		return nil, err
	}
	return &Compiled{Coverage: rep, Metagraph: mg}, nil
}
