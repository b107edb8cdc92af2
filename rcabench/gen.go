package main

import (
	"fmt"
	"hash/fnv"

	rca "github.com/climate-rca/rca"
)

// rng is splitmix64: a tiny seedable generator whose stream is fixed by
// this file alone, so the same seed gives the same inputs on every Go
// release (math/rand makes no such promise).
type rng struct{ x uint64 }

// newRNG derives an independent stream for one use of the workload
// seed: stream names the use and idx distinguishes repeated draws.
func newRNG(seed uint64, stream string, idx int) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, idx)
	r := &rng{x: seed ^ h.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniform permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ciCorpus is the corpus sizing of the repository's Go benchmarks
// (BENCH_PR3..PR10): 40 auxiliary modules, 30 ensemble members and 8
// experimental runs.
const (
	ciAux      = 40
	ciEnsemble = 30
	ciExp      = 8
	// ciSeed is the corpus seed of the fixed CI corpus that verify and
	// service run on.
	ciSeed = 2
)

func ciOptions() []rca.Option {
	return []rca.Option{rca.WithEnsembleSize(ciEnsemble), rca.WithExpSize(ciExp)}
}

// catalogCorpusSeed derives the corpus seed of catalog pass i from the
// workload seed. Every pass draws a new corpus, so a run averages over
// as many corpora as it has passes.
func catalogCorpusSeed(seed uint64, i int) uint64 {
	return 1 + newRNG(seed, "catalog-corpus", i).next()%1_000_000
}

// poolVars are the micro_mg_tend assignments the verify search scales,
// each with a relative perturbation near its UF-ECT flip point on the
// CI corpus.
var poolVars = []struct {
	name string
	eps  float64
}{
	{"tlat", 3e-5}, {"qsout", 4e-5}, {"pre", 6e-5}, {"qric", 7e-5},
	{"qvlat", 6e-5}, {"prds", 4e-5}, {"nsic", 2.5e-4}, {"qniic", 1.2e-4},
}

// searchPool derives the search pool of verify round k from the
// workload seed: every assignment of poolVars scaled by 1 + eps·u with
// u in [0.6, 0.9). At those factors no candidate flips the verdict
// alone, so minflip must assemble a multi-injection subset (four to six
// candidates) and maxdelta expands three waves, while the search's
// work varies little from pool to pool.
func searchPool(seed uint64, k int) ([]rca.Injection, error) {
	r := newRNG(seed, "verify-pool", k)
	pool := make([]rca.Injection, 0, len(poolVars))
	for _, v := range poolVars {
		f := 1 + v.eps*(0.6+0.3*r.float())
		inj, err := rca.ParseInjection(fmt.Sprintf("micro_mg/micro_mg_tend.%s*=%.8f", v.name, f))
		if err != nil {
			return nil, err
		}
		pool = append(pool, inj)
	}
	return pool, nil
}

// Service request kinds.
const (
	kindRepeat = "repeat" // a catalog scenario already investigated: an outcome-store read
	kindNovel  = "novel"  // a perturbation never seen before: a pipeline execution
	kindDup    = "dup"    // a novel perturbation sent as dupCopies concurrent copies: deduplicated in flight
)

// request is one item of the service request stream.
type request struct {
	Kind string
	N    int    // novel scenario index in the stream; -1 for repeats
	Key  string // reference-output key: the catalog name or the injection spec
	Body string // POST /v1/jobs body
}

// The service stream is made of blocks of serviceBlock requests with a
// fixed mix — serviceRepeats repeat catalog submissions, serviceDups
// duplicate groups and the rest single novel perturbations — in an
// order shuffled per block by the seed. Fixed blocks keep the mix of
// every prefix, and so of every run, the same. The 25/60/15 split is an
// assumption chosen to exercise every serve path, not a measured mix.
const (
	serviceBlock   = 20
	serviceRepeats = 5 // 25%
	serviceDups    = 3 // 15%; the other 60% are novel
)

// serviceRequest derives item i of the service request stream. Every
// third novel scenario perturbs turbcoef (a whole-corpus parameter) and
// the others scale one micro_mg_tend assignment, cycling through
// poolVars; the values come from the seed.
func serviceRequest(seed uint64, i int) request {
	block, pos := i/serviceBlock, i%serviceBlock
	slot := newRNG(seed, "service-order", block).perm(serviceBlock)[pos]
	if slot < serviceRepeats {
		scs := rca.AllExperiments()
		name := scs[(block*serviceRepeats+slot)%len(scs)].Name()
		return request{Kind: kindRepeat, N: -1, Key: "catalog/" + name,
			Body: fmt.Sprintf(`{"experiment": %q}`, name)}
	}
	kind := kindNovel
	if slot >= serviceBlock-serviceDups {
		kind = kindDup
	}
	n := block*(serviceBlock-serviceRepeats) + slot - serviceRepeats
	r := newRNG(seed, "service-novel", n)
	var spec string
	if n%3 == 0 {
		spec = fmt.Sprintf("param:turbcoef=%.8f", 0.01*(0.5+r.float()))
	} else {
		v := poolVars[n%len(poolVars)].name
		spec = fmt.Sprintf("micro_mg/micro_mg_tend.%s*=%.8f", v, 1+1e-3*(0.5+r.float()))
	}
	return request{Kind: kind, N: n, Key: "novel/" + spec,
		Body: fmt.Sprintf(`{"name": "NOVEL", "inject": [%q]}`, spec)}
}
