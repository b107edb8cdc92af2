package centrality

import (
	"math/rand"
	"testing"

	"github.com/climate-rca/rca/internal/graph"
)

func benchGraph(n, m int) *graph.Digraph {
	rng := rand.New(rand.NewSource(9))
	g := graph.New(n)
	g.AddNodes(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func BenchmarkEigenvectorIn(b *testing.B) {
	g := benchGraph(4000, 9000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenvectorIn(g, Options{})
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := benchGraph(4000, 9000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, 0.85, Options{})
	}
}

func BenchmarkNonBacktracking(b *testing.B) {
	g := benchGraph(1000, 3000).Undirected()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NonBacktracking(g, Options{})
	}
}
