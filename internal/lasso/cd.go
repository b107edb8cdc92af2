package lasso

import "math"

// This file is the coordinate-screened engine behind SelectK. It runs
// the same fixed-step proximal descent as the dense ISTA loop,
// organized around per-coordinate screening: cached column norms plus
// a Cauchy–Schwarz bound on the residual drift since the last full
// gradient certify that a zero coordinate's proximal update stays
// exactly zero, so its gradient entry need not be computed at all.
// When the drift budget is exhausted, a full-gradient refresh — a
// complete KKT pass over every coordinate — re-certifies the screen.
// Skipped work is provably a no-op, so the emitted iterates are
// bit-identical to the dense loop's.

// cdPath is the per-SelectK state the screened engine shares across
// every bisection probe: a column-major copy of the design, the shared
// pure-intercept prefix cache, and the column l2 norms the screening
// bound consumes — all lambda-independent, paid once per path.
type cdPath struct {
	ds      *design
	pc      *pathCache
	zt      []float64 // zt[j*n+i] = z[i*d+j]: column j is contiguous
	colNorm []float64 // ‖z_j‖₂, the Cauchy–Schwarz column factors

	// Scratch reused across probes (the path runs on one goroutine).
	grad    []float64 // live entries every iteration, the rest at refreshes
	budget  []float64 // per-screened-coordinate drift allowance
	dots    []float64 // per-row w·z_i, accumulated column by column
	r, rref []float64 // residuals: current iterate / last refresh
	// live and screened partition the coordinates: live gradient
	// entries are computed every iteration, screened ones only at a
	// refresh.
	live, screened []int
}

func newCDPath(ds *design) *cdPath {
	n, d := ds.n, ds.d
	c := &cdPath{
		ds:       ds,
		pc:       newPathCache(ds),
		zt:       make([]float64, n*d),
		colNorm:  make([]float64, d),
		grad:     make([]float64, d),
		budget:   make([]float64, d),
		dots:     make([]float64, n),
		r:        make([]float64, n),
		rref:     make([]float64, n),
		live:     make([]int, 0, d),
		screened: make([]int, d),
	}
	for j := 0; j < d; j++ {
		c.screened[j] = j
		col := c.zt[j*n : j*n+n]
		var s float64
		for i := range col {
			col[i] = ds.z[i*d+j]
			s += col[i] * col[i]
		}
		c.colNorm[j] = math.Sqrt(s)
	}
	return c
}

// fit runs one lambda's fit: the shared prefix fast-forward, then the
// screened tail loop.
func (c *cdPath) fit(lambda float64, maxIter int, tol float64) *Result {
	res, w, nb, t := c.pc.prefix(lambda, maxIter, tol)
	if res != nil {
		return res
	}
	return c.screenedFrom(lambda, maxIter, tol, w, nb, t+1)
}

// screenSafety is the margin on coordinate j's inactivity certificate:
// a zero weight's proximal update softThreshold(−step·grad_j/n, step·λ)
// is exactly zero whenever |grad_j| ≤ n·λ (the float expression is a
// monotone image of that comparison). The screen certifies the real
// quantity with margin to spare for the float error of an O(n)
// gradient accumulation, so the certified float update is zero too.
func screenSafety(n int, lambda float64) float64 {
	return 1e-9*float64(n)*lambda + 1e-10*float64(n)
}

// colDots sets grad[j] = Σ_i r_i·z_ij for every j in cols, four
// columns at a time. Each accumulator runs in row order, exactly the
// dense loop's per-column accumulation, so blocking reorders nothing;
// the four independent chains only let the CPU overlap them.
func (c *cdPath) colDots(cols []int) {
	n, r, g := c.ds.n, c.r, c.grad
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		j0, j1, j2, j3 := cols[k], cols[k+1], cols[k+2], cols[k+3]
		z0 := c.zt[j0*n : j0*n+n][:len(r)]
		z1 := c.zt[j1*n : j1*n+n][:len(r)]
		z2 := c.zt[j2*n : j2*n+n][:len(r)]
		z3 := c.zt[j3*n : j3*n+n][:len(r)]
		var g0, g1, g2, g3 float64
		for i, ri := range r {
			g0 += ri * z0[i]
			g1 += ri * z1[i]
			g2 += ri * z2[i]
			g3 += ri * z3[i]
		}
		g[j0], g[j1], g[j2], g[j3] = g0, g1, g2, g3
	}
	for ; k < len(cols); k++ {
		j := cols[k]
		zj := c.zt[j*n : j*n+n][:len(r)]
		var gj float64
		for i, ri := range r {
			gj += ri * zj[i]
		}
		g[j] = gj
	}
}

// refresh completes the exact full gradient from the stored residuals
// (the live entries were just computed by the iteration's gradient
// pass; the screened ones are computed here), then rebuilds the
// screen: every zero-weight coordinate with slack against n·λ is
// screened with a drift budget of slack/‖z_j‖; active and
// near-threshold coordinates stay live. Returns the minimum budget —
// the residual-drift radius within which every screened certificate
// remains valid.
func (c *cdPath) refresh(w []float64, lambda float64) (ddrLimit float64) {
	c.colDots(c.screened)
	copy(c.rref, c.r)

	nLam := float64(c.ds.n) * lambda
	safety := screenSafety(c.ds.n, lambda)
	ddrLimit = math.Inf(1)
	c.live, c.screened = c.live[:0], c.screened[:0]
	for j, wj := range w {
		if wj == 0 {
			slack := nLam - math.Abs(c.grad[j]) - safety
			if slack > 0 && c.colNorm[j] > 0 {
				c.screened = append(c.screened, j)
				c.budget[j] = slack / c.colNorm[j]
				if c.budget[j] < ddrLimit {
					ddrLimit = c.budget[j]
				}
				continue
			}
		}
		c.live = append(c.live, j)
	}
	return ddrLimit
}

// screenedFrom is the screened engine's tail loop. Its emitted floats
// — dots, sigmoids, residuals, live gradient entries, the proximal
// updates and the convergence test — are computed by exactly the
// expressions fitDense uses, in the same order; the only difference is
// that screened coordinates' gradient entries are never accumulated
// and their (provably zero) updates never applied. The screen is
// maintained conservatively on the side: per iteration one O(n)
// residual-drift norm against the refresh point, and a full refresh
// whenever the smallest budget is exceeded.
func (c *cdPath) screenedFrom(lambda float64, maxIter int, tol float64, w []float64, b float64, start int) *Result {
	ds := c.ds
	n, y := ds.n, ds.y[:ds.n]
	step, inv := ds.step, ds.inv
	dots, r, rref := c.dots[:n], c.r[:n], c.rref[:n]
	ddrLimit := -1.0 // force a refresh on the first iteration
	var iters int
	for iters = start; iters < maxIter; iters++ {
		// Dots pass, column-major: each row still sums w_j·z_ij in j
		// order from +0 and then adds b, exactly as the dense loop
		// does. Skipping a +0 weight skips a signed-zero product,
		// which leaves every finite accumulator unchanged (the engine
		// only runs on finite designs).
		for i := range dots {
			dots[i] = 0
		}
		for j, wj := range w {
			if wj == 0 {
				continue
			}
			zj := c.zt[j*n : j*n+n][:len(dots)]
			for i := range dots {
				dots[i] += wj * zj[i]
			}
		}

		// Residual pass: independent sigmoids, one per row, so their
		// exp latencies overlap. Residuals are stored for the gradient
		// pass and a possible refresh; the drift norm against the
		// refresh point and the intercept gradient ride along.
		var gradB, drift float64
		for i, dot := range dots {
			resid := sigmoid(dot+b) - y[i]
			r[i] = resid
			dr := resid - rref[i]
			drift += dr * dr
			gradB += resid
		}

		// Gradient pass over the live coordinates only.
		c.colDots(c.live)

		// Screen maintenance: the certificates cover any iterate whose
		// residual drift from the refresh point stays inside the
		// smallest budget (Cauchy–Schwarz: |Δgrad_j| ≤ ‖Δr‖·‖z_j‖).
		// The drift norm is measured conservatively; past the limit the
		// refresh computes every remaining gradient entry exactly — the
		// full KKT pass that keeps screening safe.
		if ddrLimit >= 0 && !math.IsInf(ddrLimit, 1) {
			if math.Sqrt(drift)*(1+1e-9) >= ddrLimit {
				ddrLimit = -1
			}
		}
		if ddrLimit < 0 {
			ddrLimit = c.refresh(w, lambda)
		}

		// Proximal updates over the live coordinates only: a screened
		// coordinate's update is certified to be exactly zero, so it
		// contributes nothing to the iterate or to maxDelta.
		var maxDelta float64
		for _, j := range c.live {
			nw := softThreshold(w[j]-step*c.grad[j]*inv, step*lambda)
			if dd := math.Abs(nw - w[j]); dd > maxDelta {
				maxDelta = dd
			}
			w[j] = nw
		}
		nb := b - step*gradB*inv
		if dd := math.Abs(nb - b); dd > maxDelta {
			maxDelta = dd
		}
		b = nb
		if maxDelta < tol {
			break
		}
	}
	return &Result{Weights: w, Intercept: b, Lambda: lambda, Iters: iters}
}
