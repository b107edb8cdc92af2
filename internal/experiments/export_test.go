package experiments

import "github.com/climate-rca/rca/internal/model"

// WithTreeEngine runs every integration of the session on the
// tree-walking reference interpreter (model.NewTreeRunner) — the
// oracle side of the engine differential tests.
func WithTreeEngine() Option {
	return func(s *Session) { s.newRunner = model.NewTreeRunner }
}

// WithBatch sets the lockstep batching width. WithBatch(1) runs every
// member on its own solo VM — the oracle side of the batching
// differential tests.
func WithBatch(n int) Option {
	return func(s *Session) { s.batch = n }
}
