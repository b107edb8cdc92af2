package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestExportLassoFixture regenerates internal/lasso/testdata's catalog
// selection design: the exact standardizable (X, y) matrix selectOutputs
// hands the lasso for the GOFFGRATCH scenario. The fixture lets the
// lasso package benchmark its engines on a real catalog problem —
// small true support, degenerate near-duplicate columns — instead of
// only the synthetic pipeline-shaped design. Guarded by an env var so
// a normal test run never rewrites testdata:
//
//	RCA_EXPORT_FIXTURE=1 go test ./internal/experiments -run TestExportLassoFixture
func TestExportLassoFixture(t *testing.T) {
	if os.Getenv("RCA_EXPORT_FIXTURE") == "" {
		t.Skip("set RCA_EXPORT_FIXTURE=1 to regenerate internal/lasso/testdata")
	}
	sc := GOFFGRATCH
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
	path := filepath.Join(dir, "goffgratch.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: n=%d d=%d k=%d", path, p.N, p.D, k)
}
