package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/lasso"
)

// selectionDesign is the classification problem selectOutputs hands to
// lasso.SelectK for one scenario — control ensemble vs experimental
// runs over the ECT variables — with the scenario's lasso target k.
func selectionDesign(t *testing.T, s *Session, sc Scenario) (lasso.Problem, []string, int) {
	t.Helper()
	ctx := context.Background()
	fp, err := s.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Verdict(ctx, sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name(), err)
	}
	vars := fp.Test.Vars()
	n := len(fp.Ensemble) + len(v.ExpRuns)
	d := len(vars)
	x := make([]float64, n*d)
	y := make([]float64, n)
	for i, r := range fp.Ensemble {
		for j, name := range vars {
			x[i*d+j] = r[name]
		}
	}
	for i, r := range v.ExpRuns {
		row := len(fp.Ensemble) + i
		y[row] = 1
		for j, name := range vars {
			x[row*d+j] = r[name]
		}
	}
	k := sc.Options().SelectK
	if k <= 0 {
		k = 5
	}
	return lasso.Problem{X: x, Y: y, N: n, D: d}, vars, k
}

// TestLassoCDMatchesReferenceOnCatalog pins the production lasso
// engine against its reference oracle on the real designs of every
// catalog scenario: the coordinate-screened SelectK and the dense
// from-zero SelectKReference must agree bit-for-bit on the ranked
// selection, the tuned lambda, the fitted weights and intercept, the
// iteration count and the path statistics.
func TestLassoCDMatchesReferenceOnCatalog(t *testing.T) {
	s := testSession()
	for _, sc := range catalog {
		p, _, k := selectionDesign(t, s, sc)
		cdSel, cdRes, cdSt, err := lasso.SelectK(p, k, 1500)
		if err != nil {
			t.Fatalf("%s: cd: %v", sc.Name(), err)
		}
		refSel, refRes, refSt, err := lasso.SelectKReference(p, k, 1500)
		if err != nil {
			t.Fatalf("%s: reference: %v", sc.Name(), err)
		}
		if !reflect.DeepEqual(cdSel, refSel) {
			t.Fatalf("%s: selection differs: cd %v reference %v", sc.Name(), cdSel, refSel)
		}
		if cdSt != refSt {
			t.Fatalf("%s: path stats differ: cd %+v reference %+v", sc.Name(), cdSt, refSt)
		}
		if math.Float64bits(cdRes.Lambda) != math.Float64bits(refRes.Lambda) ||
			math.Float64bits(cdRes.Intercept) != math.Float64bits(refRes.Intercept) ||
			cdRes.Iters != refRes.Iters {
			t.Fatalf("%s: lambda/intercept/iters differ: cd %v/%v/%d reference %v/%v/%d", sc.Name(),
				cdRes.Lambda, cdRes.Intercept, cdRes.Iters, refRes.Lambda, refRes.Intercept, refRes.Iters)
		}
		for j := range cdRes.Weights {
			if math.Float64bits(cdRes.Weights[j]) != math.Float64bits(refRes.Weights[j]) {
				t.Fatalf("%s: weight %d differs: cd %v reference %v",
					sc.Name(), j, cdRes.Weights[j], refRes.Weights[j])
			}
		}
	}
}
