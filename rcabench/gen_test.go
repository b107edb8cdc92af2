package main

import (
	"strings"
	"testing"

	rca "github.com/climate-rca/rca"
)

func TestInputsFollowTheSeed(t *testing.T) {
	for i := 0; i < 4; i++ {
		a := catalogCorpusSeed(1, i)
		if a != catalogCorpusSeed(1, i) {
			t.Fatal("same seed, different corpora")
		}
		if a == 0 {
			t.Fatal("corpus seed 0 selects the default corpus")
		}
		if a == catalogCorpusSeed(2, i) || a == catalogCorpusSeed(1, i+1) {
			t.Error("different seeds or passes gave the same corpus")
		}
	}
	if serviceRequest(5, 17) != serviceRequest(5, 17) || serviceRequest(5, 17) == serviceRequest(6, 17) {
		t.Error("service stream is not a function of the seed")
	}
}

func TestSearchPoolsParse(t *testing.T) {
	for k := 0; k < 8; k++ {
		pool, err := searchPool(3, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(pool) != len(poolVars) {
			t.Fatalf("pool %d has %d candidates", k, len(pool))
		}
	}
}

func TestServiceMix(t *testing.T) {
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		r := serviceRequest(9, i)
		counts[r.Kind]++
		if r.Kind == kindRepeat {
			continue
		}
		spec := strings.TrimPrefix(r.Key, "novel/")
		if _, err := rca.ParseInjection(spec); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := rca.ScenarioFromJSON([]byte(r.Body)); err != nil {
			t.Fatalf("request %d body: %v", i, err)
		}
	}
	// Whole blocks hold the mix exactly.
	for kind, want := range map[string]int{kindRepeat: 500, kindNovel: 1200, kindDup: 300} {
		if counts[kind] != want {
			t.Errorf("%d %s requests in 2000, want %d", counts[kind], kind, want)
		}
	}
}
