package corpus_test

import (
	"context"
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/metagraph"
)

// The catalog's source defects are patch injections defined by the
// experiments package; these tests check what each one does to the
// generated corpus.

// patched returns the corpus generated for cfg with one injection
// applied, built through a Session exactly as the pipeline builds it.
func patched(t *testing.T, cfg corpus.Config, inj experiments.Injection) *corpus.Corpus {
	t.Helper()
	sc := experiments.NewScenario("defect", experiments.ScenarioOptions{}, inj)
	files, err := experiments.NewSession(cfg).Sources(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return &corpus.Corpus{Files: files}
}

func source(t *testing.T, c *corpus.Corpus, file string) string {
	t.Helper()
	for _, f := range c.Files {
		if f.Name == file {
			return f.Source
		}
	}
	t.Fatalf("file %s missing", file)
	return ""
}

func TestDefectInjectionChangesSource(t *testing.T) {
	cfg := corpus.Config{AuxModules: 5}
	clean := corpus.Generate(cfg)
	for _, tc := range []struct {
		name       string
		inj        experiments.Injection
		file       string
		clean, bug string
	}{
		{"WSUBBUG", experiments.WsubDefect(), "microp_aero.F90", "max(0.20", "max(2.00"},
		{"GOFFGRATCH", experiments.GoffGratchDefect(), "wv_saturation.F90", "8.1328e-3", "8.1828e-3"},
		{"DYN3BUG", experiments.Dyn3Defect(), "dyn3.F90", "pref * 0.5\n", "pref * 0.505"},
		{"RANDOMBUG", experiments.RandomIdxDefect(), "dyn3.F90", ", 1) - state%u", ", 2) - state%u"},
		{"LANDBUG", experiments.LandDefect(), "lnd_snow.F90", "snowhland * 0.98", "snowhland * 0.90"},
	} {
		cleanSrc := source(t, clean, tc.file)
		if !strings.Contains(cleanSrc, tc.clean) || strings.Contains(cleanSrc, tc.bug) {
			t.Errorf("%s: clean %s lacks %q or already contains %q", tc.name, tc.file, tc.clean, tc.bug)
		}
		if !strings.Contains(source(t, patched(t, cfg, tc.inj), tc.file), tc.bug) {
			t.Errorf("%s: %q not injected into %s", tc.name, tc.bug, tc.file)
		}
	}
}

// TestDefectInjectionPreservesStructure: every catalog defect must
// parse and produce a graph with the same node count as the clean
// corpus (the defects are value changes, not structural ones — even
// RANDOMBUG's shift index is value-level in the graph).
func TestDefectInjectionPreservesStructure(t *testing.T) {
	cfg := corpus.Config{AuxModules: 25, Seed: 3}
	clean := nodeCount(t, corpus.Generate(cfg))
	for _, inj := range []experiments.Injection{experiments.WsubDefect(), experiments.GoffGratchDefect(),
		experiments.Dyn3Defect(), experiments.RandomIdxDefect(), experiments.LandDefect()} {
		if got := nodeCount(t, patched(t, cfg, inj)); got != clean {
			t.Fatalf("%s changed node count: %d vs %d", inj.ID(), got, clean)
		}
	}
}

func nodeCount(t *testing.T, c *corpus.Corpus) int {
	t.Helper()
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := metagraph.Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	return mg.G.NumNodes()
}
