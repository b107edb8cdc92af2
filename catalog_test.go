package rca

import (
	"context"
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// TestCatalogPinned pins the prewired catalog: every scenario's name,
// slicing options and ordered injection fingerprints, and for the five
// source defects the fingerprint of the patched corpus. The values
// were recorded before the closed Bug enum was removed, so they also
// pin that the patch injections reproduce the enum's source trees.
func TestCatalogPinned(t *testing.T) {
	want := []struct {
		name   string
		opts   ScenarioOptions
		ids    []string
		source string // patched-corpus fingerprint; "" for configuration-only scenarios
	}{
		{"WSUBBUG", ScenarioOptions{CAMOnly: true, SelectK: 1},
			[]string{"patch:microp_aero/aero_run.wsub:0.20=>2.00@wsub"}, "7e8a7efcad115c2f"},
		{"RAND-MT", ScenarioOptions{CAMOnly: true, SelectK: 5},
			[]string{"prng:mt19937"}, ""},
		{"GOFFGRATCH", ScenarioOptions{CAMOnly: true, SelectK: 5},
			[]string{"patch:wv_saturation/goffgratch_svp.e2:8.1328e-3=>8.1828e-3@wv_saturation::goffgratch_svp::es"}, "c2ba8261208564e8"},
		{"AVX2", ScenarioOptions{CAMOnly: true, SelectK: 5},
			[]string{"fma:*"}, ""},
		{"RANDOMBUG", ScenarioOptions{CAMOnly: true, SelectK: 1},
			[]string{"patch:dyn3/dyn3_hydro.omg_tmp:shift(state%u, 1)=>shift(state%u, 2)"}, "f902deaff7b2a08e"},
		{"DYN3BUG", ScenarioOptions{CAMOnly: true, SelectK: 5},
			[]string{"patch:dyn3/dyn3_hydro.pint:pref * 0.5=>pref * 0.505"}, "0191ae6601f122d6"},
		{"AVX2-FULL", ScenarioOptions{CAMOnly: false, SelectK: 5},
			[]string{"fma:*"}, ""},
		{"LANDBUG", ScenarioOptions{CAMOnly: false, SelectK: 2},
			[]string{"patch:lnd_snow/lnd_run.snowhland:snowhland * 0.98=>snowhland * 0.90"}, "b3d31f8ac1bc5907"},
	}
	got := AllExperiments()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d scenarios, want %d", len(got), len(want))
	}
	session := NewSession(CorpusConfig{AuxModules: 20, Seed: 3})
	for i, w := range want {
		sc := got[i]
		t.Run(w.name, func(t *testing.T) {
			var ids []string
			for _, inj := range sc.Injections() {
				ids = append(ids, inj.ID())
			}
			if sc.Name() != w.name || sc.Options() != w.opts || !reflect.DeepEqual(ids, w.ids) {
				t.Errorf("scenario %d = %q %+v %q, want %q %+v %q",
					i, sc.Name(), sc.Options(), ids, w.name, w.opts, w.ids)
			}
			if w.source == "" {
				return
			}
			files, err := session.Sources(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if fp := (&corpus.Corpus{Files: files}).Fingerprint(); fp != w.source {
				t.Errorf("patched corpus fingerprint %s, want %s", fp, w.source)
			}
		})
	}
}
