package model_test

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/model"
)

// TestECTShape is the calibration gate for the whole reproduction: the
// control passes the consistency test, and every experiment fails it
// (paper §6: all experiments produce UF-CAM-ECT failures). The source
// defects are the catalog's patch injections, built by a Session the
// way the pipeline builds them.
func TestECTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test is slow")
	}
	base := corpus.Config{AuxModules: 30, Seed: 2}
	r, err := model.NewRunner(corpus.Generate(base))
	if err != nil {
		t.Fatal(err)
	}
	ens, err := r.Ensemble(40, model.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	test, err := ect.NewTest(ens, ect.Config{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, runs []ect.RunOutput, wantFail bool) {
		t.Helper()
		rate := test.FailureRate(runs)
		if wantFail && rate < 0.8 {
			t.Errorf("%s: failure rate %.2f; want >= 0.8", name, rate)
		}
		if !wantFail && rate > 0.2 {
			t.Errorf("%s: failure rate %.2f; want <= 0.2", name, rate)
		}
	}

	// Control: fresh members with unseen perturbation seeds must pass.
	control, err := r.ExperimentalSet(10, 1000, model.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check("control", control, false)

	// RAND-MT: same source, Mersenne Twister PRNG.
	mt, err := r.ExperimentalSet(10, 1000, model.RunConfig{RNG: model.RNGMersenne})
	if err != nil {
		t.Fatal(err)
	}
	check("RAND-MT", mt, true)

	// AVX2: FMA enabled everywhere.
	fma, err := r.ExperimentalSet(10, 1000, model.RunConfig{FMA: func(string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	check("AVX2", fma, true)

	// Source defects.
	session := experiments.NewSession(base)
	for _, sc := range []experiments.Scenario{experiments.WSUBBUG, experiments.GOFFGRATCH,
		experiments.DYN3BUG, experiments.RANDOMBUG} {
		b, err := session.Builds(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := b.Exper.ExperimentalSet(10, 1000, model.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		check(sc.Name(), runs, true)
	}
}
