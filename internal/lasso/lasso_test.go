package lasso

import (
	"math"
	"math/rand"
	"testing"
)

// synthProblem builds a classification problem where only the first
// `informative` of d features separate the classes.
func synthProblem(rng *rand.Rand, n, d, informative int, gap float64) Problem {
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		label := float64(i % 2)
		y[i] = label
		for j := 0; j < d; j++ {
			v := rng.NormFloat64()
			if j < informative && label == 1 {
				v += gap
			}
			x[i*d+j] = v
		}
	}
	return Problem{X: x, Y: y, N: n, D: d}
}

func TestFitSeparatesObviousFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := synthProblem(rng, 80, 5, 1, 6)
	res, err := Fit(p, 0.01, 2000, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] <= 0 {
		t.Fatalf("informative weight = %v; want > 0", res.Weights[0])
	}
	for j := 1; j < 5; j++ {
		if math.Abs(res.Weights[j]) > math.Abs(res.Weights[0]) {
			t.Fatalf("noise weight %d (%v) exceeds informative (%v)", j, res.Weights[j], res.Weights[0])
		}
	}
}

func TestFitHighLambdaZeroesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := synthProblem(rng, 40, 4, 2, 3)
	res, err := Fit(p, 100, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support()) != 0 {
		t.Fatalf("support = %v; want empty", res.Support())
	}
}

func TestFitShapeErrors(t *testing.T) {
	if _, err := Fit(Problem{}, 0.1, 10, 0); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Fit(Problem{X: []float64{1}, Y: []float64{1, 0}, N: 2, D: 1}, 0.1, 10, 0); err == nil {
		t.Fatal("mismatched X accepted")
	}
}

func TestSupportOrdering(t *testing.T) {
	r := &Result{Weights: []float64{0, -3, 1, 0, 2}}
	got := r.Support()
	want := []int{1, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v; want %v", got, want)
		}
	}
}

func TestSelectKFindsInformativeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 12 features, 5 informative; ask for 5 (paper's target).
	p := synthProblem(rng, 120, 12, 5, 4)
	sel, res, _, err := SelectK(p, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) < 5 {
		t.Fatalf("selected %d variables; want >= 5 (got %v)", len(sel), sel)
	}
	// The 5 informative features must dominate the selection.
	informative := 0
	for _, j := range sel[:5] {
		if j < 5 {
			informative++
		}
	}
	if informative < 4 {
		t.Fatalf("only %d of top-5 selections are informative: %v (lambda %v)", informative, sel, res.Lambda)
	}
}

func TestSelectKRejectsBadK(t *testing.T) {
	if _, _, _, err := SelectK(Problem{X: []float64{1}, Y: []float64{1}, N: 1, D: 1}, 0, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ x, t, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.x, c.t); got != c.want {
			t.Fatalf("softThreshold(%v,%v) = %v; want %v", c.x, c.t, got, c.want)
		}
	}
}

func TestFitMonotoneSupportInLambda(t *testing.T) {
	// Support size should (weakly) shrink as lambda grows.
	rng := rand.New(rand.NewSource(3))
	p := synthProblem(rng, 60, 8, 3, 3)
	prev := math.MaxInt32
	for _, lam := range []float64{0.001, 0.01, 0.05, 0.2, 1.0} {
		res, err := Fit(p, lam, 1500, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		s := len(res.Support())
		if s > prev+1 { // allow slack of 1 for path non-monotonicity
			t.Fatalf("support grew sharply with lambda: %d -> %d at %v", prev, s, lam)
		}
		if s < prev {
			prev = s
		}
	}
}
