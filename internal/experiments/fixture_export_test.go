package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportLassoFixture regenerates internal/lasso/testdata's catalog
// selection designs: the exact standardizable (X, y) matrices
// selectOutputs hands the lasso for two scenarios. The fixtures let
// the lasso package benchmark its engines on real catalog problems
// instead of only the synthetic pipeline-shaped design: GOFFGRATCH has
// a small support (most coefficients stay zero, so screening skips
// most columns) and degenerate near-duplicate columns; DYN3BUG has a
// dense support (most coefficients go nonzero and the screen refreshes
// often), the case where per-iteration row work dominates. Guarded by
// an env var so a normal test run never rewrites testdata:
//
//	RCA_EXPORT_FIXTURE=1 go test ./internal/experiments -run TestExportLassoFixture
func TestExportLassoFixture(t *testing.T) {
	if os.Getenv("RCA_EXPORT_FIXTURE") == "" {
		t.Skip("set RCA_EXPORT_FIXTURE=1 to regenerate internal/lasso/testdata")
	}
	for _, sc := range []Scenario{GOFFGRATCH, DYN3BUG} {
		exportLassoFixture(t, sc)
	}
}

func exportLassoFixture(t *testing.T, sc Scenario) {
	p, vars, k := selectionDesign(t, testSession(), sc)
	fix := struct {
		Name string    `json:"name"`
		N    int       `json:"n"`
		D    int       `json:"d"`
		K    int       `json:"k"`
		Vars []string  `json:"vars"`
		X    []float64 `json:"x"`
		Y    []float64 `json:"y"`
	}{Name: sc.Name(), N: p.N, D: p.D, K: k, Vars: vars, X: p.X, Y: p.Y}
	buf, err := json.Marshal(&fix)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("..", "lasso", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.ToLower(sc.Name())+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: n=%d d=%d k=%d", path, p.N, p.D, k)
}
