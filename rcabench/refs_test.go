package main

import (
	"path/filepath"
	"testing"
)

func TestCheckerReference(t *testing.T) {
	ref := map[string]string{"corpus=7/GOFFGRATCH": digest("bug located      true\n")}
	c := newChecker(ref)
	if !c.check("corpus=7/GOFFGRATCH", "bug located      true\n", true) {
		t.Fatal("the reference output was rejected")
	}
	if got := c.failedFrac(); got != 0 {
		t.Fatalf("failed_frac = %v after a matching output", got)
	}
	// A deliberately wrong output under a recorded key must count.
	if c.check("corpus=7/GOFFGRATCH", "bug located      false\n", true) {
		t.Fatal("a wrong output passed")
	}
	if got := c.failedFrac(); got != 0.5 {
		t.Fatalf("failed_frac = %v, want 0.5", got)
	}
}

func TestCheckerConsistencyAndValidity(t *testing.T) {
	c := newChecker(nil) // a seed without a recorded reference
	c.check("search/pool=1/minflip", "best a + b", true)
	if c.check("search/pool=1/minflip", "best a", true) {
		t.Error("two different outputs under one key both passed")
	}
	if c.check("catalog/LANDBUG", "bug located      false", false) {
		t.Error("an output failing its validity test passed")
	}
	c.fail("novel/x", errString("status 503 Service Unavailable"))
	if a, f := c.counts(); a != 4 || f != 3 {
		t.Errorf("counts = %d attempted, %d failed; want 4, 3", a, f)
	}
	if newChecker(nil).failedFrac() != 1 {
		t.Error("a run that attempted nothing must not read as clean")
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestReferenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog-1.json")
	c := newChecker(nil)
	c.check("a", "one", true)
	c.check("b", "two", true)
	if err := c.saveRef(path); err != nil {
		t.Fatal(err)
	}
	ref, err := loadRef(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 || ref["a"] != digest("one") {
		t.Fatalf("reference = %v", ref)
	}
	if none, err := loadRef(filepath.Join(t.TempDir(), "missing.json")); none != nil || err != nil {
		t.Errorf("missing reference = %v, %v; want nil, nil", none, err)
	}
	again := newChecker(ref)
	if again.check("b", "TWO", true) {
		t.Error("an output differing from the loaded reference passed")
	}
}

func TestCheckerShiftedKeyFails(t *testing.T) {
	ref := map[string]string{"corpus=7/GOFFGRATCH": digest("bug located      true\n")}
	c := newChecker(ref)
	if !c.checkFirst("corpus=7/GOFFGRATCH", "bug located      true\n", true) {
		t.Fatal("a first-pass output matching its reference was rejected")
	}
	// Inputs whose keys moved (a new corpus seed derivation, say) leave a
	// reference that matches nothing; their first-pass outputs must fail.
	if c.checkFirst("corpus=8/GOFFGRATCH", "bug located      true\n", true) {
		t.Error("a first-pass output with no recorded reference passed")
	}
	// Past the first pass a recording may end, so a missing key is fine.
	if !c.check("corpus=9/GOFFGRATCH", "bug located      true\n", true) {
		t.Error("a later-pass output beyond the recording failed")
	}
	if a, f := c.counts(); a != 3 || f != 1 || c.hits() != 1 {
		t.Errorf("counts = %d attempted, %d failed, %d reference hits; want 3, 1, 1", a, f, c.hits())
	}
	if !newChecker(nil).checkFirst("corpus=8/GOFFGRATCH", "x", true) {
		t.Error("a seed without a reference failed a first-pass output")
	}
}

func TestRefPath(t *testing.T) {
	if got := refPath("ref", "catalog", 7919); got != filepath.Join("ref", "catalog-7919.json") {
		t.Errorf("catalog reference = %s", got)
	}
	if refPath("ref", "paperscale", 1) != refPath("ref", "paperscale", 7919) {
		t.Error("paperscale seeds do not share their reference")
	}
}
