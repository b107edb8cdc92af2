// Package centrality implements the node-importance measures used by the
// iterative refinement procedure (Milroy et al. §5.2-5.3): in-degree
// and eigenvector centrality (including the in-centrality variant used
// to pick sampling sites), PageRank, and the Hashimoto
// non-backtracking centrality analysed in the paper's supplement §8.1.
package centrality

import (
	"math"
	"sort"

	"github.com/climate-rca/rca/internal/graph"
)

// Ranked pairs a node id with a centrality score.
type Ranked struct {
	Node  int
	Score float64
}

// TopK returns the k highest-scoring entries of scores in descending
// score order, breaking ties by ascending node id for determinism.
func TopK(scores []float64, k int) []Ranked {
	rs := make([]Ranked, len(scores))
	for i, s := range scores {
		rs[i] = Ranked{Node: i, Score: s}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Node < rs[j].Node
	})
	if k > len(rs) {
		k = len(rs)
	}
	return rs[:k]
}

// InDegree returns in-degree centrality normalized by (n-1).
func InDegree(g *graph.Digraph) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	for u := 0; u < n; u++ {
		out[u] = float64(g.InDegree(u)) / float64(n-1)
	}
	return out
}

// Options configures iterative eigensolvers.
type Options struct {
	MaxIter int     // power-iteration cap (default 200)
	Tol     float64 // L1 convergence tolerance (default 1e-10)
	// Parallelism bounds the matvec worker pool (default 1). Scores
	// are bit-identical at every parallelism level: each node's sum is
	// computed by exactly one worker in a fixed adjacency order, and
	// the norm/convergence reductions stay sequential.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Eigenvector computes eigenvector out-centrality by power iteration on
// the adjacency matrix A: x_{k+1} = A x_k, i.e. a node is central if it
// points at central nodes. Scores are L2-normalized and non-negative.
//
// A small teleport term (1e-4 of uniform mass) is mixed in so the
// iteration converges on graphs that are not strongly connected, which
// CESM variable subgraphs never are; this matches NetworkX's practical
// behaviour with nstart and tolerates sink/source structure.
func Eigenvector(g *graph.Digraph, opt Options) []float64 {
	return eigen(g, opt, false)
}

// EigenvectorIn computes eigenvector in-centrality: x_{k+1} = Aᵀ x_k, so
// a node is central if central nodes point at it — the "information
// sink" orientation the paper samples (§5.3).
func EigenvectorIn(g *graph.Digraph, opt Options) []float64 {
	return eigen(g, opt, true)
}

// eigen runs power iteration on a frozen CSR snapshot. The matvec is
// pull-based — for in-centrality score(v) sums x over v's in-neighbors
// (each edge u->v credits v), for out-centrality over v's
// out-neighbors — so a worker owns a contiguous range of target nodes
// and writes next[v] without contention. Sharding cannot change the
// result: every per-node sum runs in the node's fixed adjacency order
// on exactly one worker, and the norm/convergence reductions are
// sequential.
func eigen(g *graph.Digraph, opt Options, in bool) []float64 {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	c := graph.Freeze(g)
	x := make([]float64, n)
	next := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	const teleport = 1e-4
	shards := graph.NumShards(n)
	// Below ~1k nodes (the common community-subgraph case) a matvec is
	// sub-microsecond and goroutine setup would dominate; run on the
	// calling goroutine. Values are unaffected either way.
	par := opt.Parallelism
	if n < 1024 {
		par = 1
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		uniform := teleport / float64(n)
		graph.ParallelShards(par, shards, func(shard, _ int) {
			lo, hi := graph.ShardRange(n, shards, shard)
			for v := lo; v < hi; v++ {
				s := uniform
				if in {
					for _, u := range c.In(v) {
						s += x[u]
					}
				} else {
					for _, w := range c.Out(v) {
						s += x[w]
					}
				}
				next[v] = s
			}
		})
		norm := l2(next)
		if norm == 0 {
			return next
		}
		var diff float64
		for i := range next {
			next[i] /= norm
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < opt.Tol*float64(n) {
			break
		}
	}
	return x
}

func l2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// PageRank computes PageRank with damping factor d (use 0.85 when in
// doubt). Dangling mass is redistributed uniformly.
func PageRank(g *graph.Digraph, d float64, opt Options) []float64 {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	x := make([]float64, n)
	next := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		var dangling float64
		for u := 0; u < n; u++ {
			if g.OutDegree(u) == 0 {
				dangling += x[u]
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		for i := range next {
			next[i] = base
		}
		for u := 0; u < n; u++ {
			if deg := g.OutDegree(u); deg > 0 {
				share := d * x[u] / float64(deg)
				for _, v := range g.Out(u) {
					next[v] += share
				}
			}
		}
		var diff float64
		for i := range next {
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < opt.Tol*float64(n) {
			break
		}
	}
	return x
}
