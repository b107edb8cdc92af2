package centrality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/climate-rca/rca/internal/graph"
)

func star(n int) *graph.Digraph {
	// Hub 0 with spokes 1..n-1 pointing INTO the hub.
	g := graph.New(n)
	g.AddNodes(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, 0)
	}
	return g
}

func cycle(n int) *graph.Digraph {
	g := graph.New(n)
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestInDegree(t *testing.T) {
	g := star(5)
	d := InDegree(g)
	if d[0] != 1.0 || d[1] != 0 {
		t.Fatalf("in-degree = %v", d)
	}
}

func TestEigenvectorInFavorsSink(t *testing.T) {
	// Spokes point into hub: hub should dominate in-centrality.
	g := star(8)
	c := EigenvectorIn(g, Options{})
	for i := 1; i < 8; i++ {
		if c[0] <= c[i] {
			t.Fatalf("hub in-centrality %v not above spoke %v", c[0], c[i])
		}
	}
	// Out-centrality is the mirror: spokes (which point at the hub)
	// should beat the hub.
	o := Eigenvector(g, Options{})
	if o[0] >= o[1] {
		t.Fatalf("hub out-centrality %v should be below spoke %v", o[0], o[1])
	}
}

func TestEigenvectorCycleUniform(t *testing.T) {
	g := cycle(6)
	c := EigenvectorIn(g, Options{})
	for i := 1; i < 6; i++ {
		if math.Abs(c[i]-c[0]) > 1e-6 {
			t.Fatalf("cycle not uniform: %v", c)
		}
	}
}

func TestEigenvectorEmptyAndSingle(t *testing.T) {
	if c := EigenvectorIn(graph.New(0), Options{}); c != nil {
		t.Fatalf("empty graph = %v", c)
	}
	g := graph.New(1)
	g.AddNode()
	c := EigenvectorIn(g, Options{})
	if len(c) != 1 {
		t.Fatalf("len = %d", len(c))
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9}
	top := TopK(scores, 3)
	if top[0].Node != 1 || top[1].Node != 3 || top[2].Node != 2 {
		t.Fatalf("TopK = %+v", top)
	}
	if got := TopK(scores, 99); len(got) != 4 {
		t.Fatalf("TopK clamp failed: %d", len(got))
	}
}

func TestPageRankSums(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New(30)
	g.AddNodes(30)
	for i := 0; i < 80; i++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	pr := PageRank(g, 0.85, Options{})
	var sum float64
	for _, p := range pr {
		sum += p
		if p < 0 {
			t.Fatalf("negative PageRank %v", p)
		}
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("PageRank sum = %v; want 1", sum)
	}
}

func TestPageRankSinkGetsMass(t *testing.T) {
	// 0->2, 1->2: sink 2 should outrank sources.
	g := graph.New(3)
	g.AddNodes(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	pr := PageRank(g, 0.85, Options{})
	if pr[2] <= pr[0] {
		t.Fatalf("sink %v not above source %v", pr[2], pr[0])
	}
}

func TestNonBacktrackingCycle(t *testing.T) {
	// A symmetric cycle supports non-backtracking walks; scores should
	// be uniform and positive.
	g := cycle(5).Undirected()
	c := NonBacktracking(g, Options{})
	for i, v := range c {
		if v <= 0 {
			t.Fatalf("node %d score %v; want > 0", i, v)
		}
		if math.Abs(v-c[0]) > 1e-6 {
			t.Fatalf("cycle NB centrality not uniform: %v", c)
		}
	}
}

func TestNonBacktrackingTreeDies(t *testing.T) {
	// On an undirected tree every non-backtracking walk dies; scores 0.
	g := graph.New(3)
	g.AddNodes(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	c := NonBacktracking(g, Options{})
	for i, v := range c {
		if v != 0 {
			t.Fatalf("tree node %d score %v; want 0", i, v)
		}
	}
}

func TestNonBacktrackingIsolatedNodeZero(t *testing.T) {
	g := cycle(4).Undirected()
	iso := g.AddNode()
	c := NonBacktracking(g, Options{})
	if c[iso] != 0 {
		t.Fatalf("isolated node score = %v", c[iso])
	}
}

// Property: centrality vectors are non-negative and finite on random
// graphs.
func TestCentralityNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := graph.New(n)
		g.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		for _, scores := range [][]float64{
			EigenvectorIn(g, Options{}),
			Eigenvector(g, Options{}),
			PageRank(g, 0.85, Options{}),
			NonBacktracking(g.Undirected(), Options{}),
		} {
			for _, s := range scores {
				if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
