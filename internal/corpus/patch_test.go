package corpus

import (
	"errors"
	"strings"
	"testing"
)

func TestApplyUnknownTargets(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	cases := []Patch{
		ReplaceInAssign{Subprogram: "no_such_sub", Var: "x", Old: "1", New: "2"},
		ReplaceInAssign{Module: "no_such_mod", Subprogram: "aero_run", Var: "wsub", Old: "0.20", New: "2.00"},
		ReplaceInAssign{Subprogram: "aero_run", Var: "no_such_var", Old: "0.20", New: "2.00"},
		ScaleAssign{Subprogram: "aero_run", Var: "wsub", Occurrence: 3, Factor: 2},
	}
	for _, p := range cases {
		if _, err := Apply(c, p); !errors.Is(err, ErrUnknownSubprogram) {
			t.Errorf("%s: err = %v, want ErrUnknownSubprogram", p.ID(), err)
		}
	}
	// Old text absent from the located assignment is a bad patch, not
	// an unknown target.
	if _, err := Apply(c, ReplaceInAssign{Subprogram: "aero_run", Var: "wsub",
		Old: "9.99", New: "1.0"}); !errors.Is(err, ErrBadPatch) {
		t.Errorf("absent old text: err = %v, want ErrBadPatch", err)
	}
}

func TestScaleAssignRewritesAndParses(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	patched, err := Apply(c, ScaleAssign{Module: "micro_mg", Subprogram: "micro_mg_tend",
		Var: "ratio", Factor: 1.0001})
	if err != nil {
		t.Fatal(err)
	}
	var src string
	for _, f := range patched.Files {
		if f.Name == "micro_mg.F90" {
			src = f.Source
		}
	}
	want := "ratio = (qniic / max(1.0e-12, qric + qniic)) * 1.0001"
	if !strings.Contains(src, want) {
		t.Fatalf("patched micro_mg missing %q", want)
	}
	if _, err := patched.Parse(); err != nil {
		t.Fatal(err)
	}
	// Deterministic: applying the same patch twice from scratch gives
	// the same fingerprint, distinct from the clean corpus.
	again, err := Apply(c, ScaleAssign{Module: "micro_mg", Subprogram: "micro_mg_tend",
		Var: "ratio", Factor: 1.0001})
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != patched.Fingerprint() {
		t.Fatal("patch application not deterministic")
	}
	if patched.Fingerprint() == c.Fingerprint() {
		t.Fatal("patch did not change the fingerprint")
	}
}

// TestPatchesCompose applies two independent defects; both edits must
// land and the tree must still parse.
func TestPatchesCompose(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	p1 := ReplaceInAssign{Subprogram: "aero_run", Var: "wsub", Old: "0.20", New: "2.00"}
	p2 := ReplaceInAssign{Subprogram: "goffgratch_svp", Var: "e2", Old: "8.1328e-3", New: "8.1828e-3"}
	patched, err := Apply(c, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, f := range patched.Files {
		joined += f.Source
	}
	for _, want := range []string{"max(2.00, tke * 0.5)", "8.1828e-3"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("composed patches missing %q", want)
		}
	}
	if _, err := patched.Parse(); err != nil {
		t.Fatal(err)
	}
}

func TestOccurrenceSelectsLaterAssignment(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	// dum is assigned several times in micro_mg_tend; occurrence 1 is
	// the second assignment.
	patched, err := Apply(c, ScaleAssign{Subprogram: "micro_mg_tend", Var: "dum",
		Occurrence: 1, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	var src string
	for _, f := range patched.Files {
		if f.Name == "micro_mg.F90" {
			src = f.Source
		}
	}
	if !strings.Contains(src, "dum = (qric * 0.3 + ccn * 1.0e-4) * 2.0") {
		t.Fatalf("occurrence patch landed wrong:\n%s", src)
	}
}
