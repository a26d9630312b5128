package core

import (
	"math"

	"hotgauge/internal/geometry"
)

// The per-frame analysis pass: the Fig. 9 max-MLTD sample and the §V
// sev(t) sample, with the exact disk minimum (MLTDAt) evaluated only at
// cells that can still raise one of them.
//
// Bound pass. Blocks of side n = int(Radius/Dx) cells tile the die, so
// the disk around any cell of block b lies inside b's 3×3 block
// neighbourhood. A block is read once per pass, when first needed, for
// its minimum, its maximum and its hottest cell, so a whole-die pass
// costs O(cells); LB_b, the minimum over the 9 block minima, bounds the
// disk minimum of every cell of b from below.
// Floating-point subtraction is monotone, so MLTD ≤ T − LB_b holds
// exactly. NaN cells are ignored, as in MLTDAt.
//
// Exact pass. The bests are seeded with the exact values at the hottest
// cell and at the hottest cell of the block with the largest bound.
// Then a block, and inside it a cell, is evaluated only while its bound
// can still beat a best. For MLTD that is T − LB_b > best, because a
// maximum moves only on a strict >. For severity the bound is
//
//	U(T, M) = σ_df(T) + σ_M(M)·σ_T(T),  M = T − LB_b,
//
// Equation 2 before clipping with the MLTD raised to its bound: σ_M
// increases and σ_T > 0, so U ≥ sev. A block knows only that its T lies
// in [T_min, T_max], so it takes σ_df and σ_M at T_max and σ_T at T_max
// when σ_M ≥ 0, at T_min when σ_M < 0. U falls below 0 on a cool die, so
// a frame whose best severity is 0 prunes as well. A cell whose U sits
// below best − δ is skipped; δ is many orders of magnitude above the
// few-ulp rounding of the sigmoids, so the bound holds in floating
// point. A NaN bound proves nothing and prunes nothing. A minimum is
// exact in any order, so the maxima are bit-equal to evaluating every
// cell, which pass_equiv_test.go enforces.

// boundMargin is δ: how far below the best severity a bound must sit to
// skip a block or a cell. Severity lies in [0, 1], where the sigmoids
// round within about 1e-15.
const boundMargin = 1e-9

// block is one tile's summary, valid while gen is the analyzer's.
type block struct {
	min, max float64 // temperature extremes over the block, NaNs ignored
	hot      int     // cell index of the hottest cell; -1 if all are NaN
	gen      uint64  // the pass that summarized the block
	lb       float64 // LB_b: the minimum over the 3×3 block neighbourhood
	ub       float64 // the block's severity bound U
}

// cellRect is an inclusive rectangle of cells or of blocks.
type cellRect struct{ x0, y0, x1, y1 int }

func (r cellRect) has(x, y int) bool { return x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1 }

// die is the rectangle of every cell.
func (a *Analyzer) die() cellRect { return cellRect{0, 0, a.nx - 1, a.ny - 1} }

// severityBound is U(T, M) for a cell of known temperature T whose MLTD
// is at most M.
func severityBound(t, m float64) float64 {
	return SigmaDF(t) + SigmaM(m)*SigmaT(t)
}

// severityBound is U for every cell of the block.
func (b *block) severityBound() float64 {
	sm, tt := SigmaM(b.max-b.lb), b.max
	if sm < 0 {
		tt = b.min
	}
	return SigmaDF(b.max) + sm*SigmaT(tt)
}

// summary returns block (bx, by), summarized once per pass: only the
// blocks some caller asks about are read.
func (a *Analyzer) summary(data []float64, bx, by int) *block {
	b := &a.blocks[by*a.bw+bx]
	if b.gen == a.gen {
		return b
	}
	b.min, b.max, b.hot, b.gen = math.Inf(1), math.Inf(-1), -1, a.gen
	for y := by * a.n; y < min(by*a.n+a.n, a.ny); y++ {
		for x := bx * a.n; x < min(bx*a.n+a.n, a.nx); x++ {
			v := data[y*a.nx+x]
			if v < b.min {
				b.min = v
			}
			if v > b.max {
				b.max, b.hot = v, y*a.nx+x
			}
		}
	}
	return b
}

// lowerBound returns LB for the cells of block (bx, by): the minimum
// over its 3×3 block neighbourhood, which holds each of their disks.
func (a *Analyzer) lowerBound(data []float64, bx, by int) float64 {
	lb := math.Inf(1)
	for y := max(by-1, 0); y <= min(by+1, a.bh-1); y++ {
		for x := max(bx-1, 0); x <= min(bx+1, a.bw-1); x++ {
			if v := a.summary(data, x, y).min; v < lb {
				lb = v
			}
		}
	}
	return lb
}

// pass returns the maximum MLTD (0 when none is positive) and the peak
// severity over the cells of r, both exactly the per-cell maxima of
// MLTDAt and Severity(T, MLTDAt). It prunes for the maxima wanted; the
// other one is the maximum over the cells it happened to evaluate.
func (a *Analyzer) pass(f *geometry.Field, r cellRect, wantM, wantS bool) (mltd, sev float64) {
	a.checkShape(f)
	a.evals = 0
	r = cellRect{max(r.x0, 0), max(r.y0, 0), min(r.x1, a.nx-1), min(r.y1, a.ny-1)}
	if r.x0 > r.x1 || r.y0 > r.y1 {
		return 0, 0
	}
	a.gen++
	br := cellRect{r.x0 / a.n, r.y0 / a.n, r.x1 / a.n, r.y1 / a.n}

	// Bounds, and the seeds: the hottest cell, and the hottest cells of
	// the blocks with the largest MLTD and severity bounds, each in r.
	hot, topM, topS := -1, -1, -1
	for by := br.y0; by <= br.y1; by++ {
		for bx := br.x0; bx <= br.x1; bx++ {
			bi := by*a.bw + bx
			b := a.summary(f.Data, bx, by)
			b.lb = a.lowerBound(f.Data, bx, by)
			if wantS {
				b.ub = b.severityBound()
			}
			if b.hot < 0 || !r.has(b.hot%a.nx, b.hot/a.nx) {
				continue
			}
			if hot < 0 || b.max > a.blocks[hot].max {
				hot = bi
			}
			if wantM && (topM < 0 || b.max-b.lb > a.blocks[topM].max-a.blocks[topM].lb) {
				topM = bi
			}
			if wantS && (topS < 0 || b.ub > a.blocks[topS].ub) {
				topS = bi
			}
		}
	}
	seeds := [3]int{-1, -1, -1}
	for k, bi := range [3]int{hot, topM, topS} {
		if bi < 0 {
			continue
		}
		i := a.blocks[bi].hot
		if i == seeds[0] || i == seeds[1] {
			continue
		}
		seeds[k] = i
		a.exact(f.Data, i, &mltd, &sev)
	}

	for by := br.y0; by <= br.y1; by++ {
		for bx := br.x0; bx <= br.x1; bx++ {
			b := &a.blocks[by*a.bw+bx]
			mLive := wantM && b.max-b.lb > mltd
			sLive := wantS && sev < 1 && !(b.ub < sev-boundMargin)
			if !mLive && !sLive {
				continue
			}
			for y := max(by*a.n, r.y0); y <= min(by*a.n+a.n-1, r.y1); y++ {
				for x := max(bx*a.n, r.x0); x <= min(bx*a.n+a.n-1, r.x1); x++ {
					i := y*a.nx + x
					t := f.Data[i]
					if !(mLive && t-b.lb > mltd) &&
						!(sLive && sev < 1 && !(severityBound(t, t-b.lb) < sev-boundMargin)) {
						continue
					}
					if i == seeds[0] || i == seeds[1] || i == seeds[2] {
						continue
					}
					a.exact(f.Data, i, &mltd, &sev)
				}
			}
		}
	}
	return mltd, sev
}

// exact evaluates cell i's MLTD and severity, raises the bests with them
// as the per-cell maxima do (NaN never raises) and counts the evaluation.
func (a *Analyzer) exact(data []float64, i int, mltd, sev *float64) {
	a.evals++
	m := a.mltdAt(data, i%a.nx, i/a.nx)
	if m > *mltd {
		*mltd = m
	}
	if s := Severity(data[i], m); s > *sev {
		*sev = s
	}
}

// MaxMLTDSeverity returns the maximum MLTD and the peak hotspot
// severity over the die — the Fig. 9 and §V sev(t) samples of one frame
// — from one pass. Both equal the maxima over cells of MLTDAt and of
// Severity(T, MLTDAt) exactly. It allocates nothing.
func (a *Analyzer) MaxMLTDSeverity(f *geometry.Field) (mltd, sev float64) {
	return a.pass(f, a.die(), true, true)
}

// MaxSeverity returns the peak hotspot severity over the die: the sev(t)
// series of §V. It is the severity half of MaxMLTDSeverity's pass,
// pruned for severity alone.
func (a *Analyzer) MaxSeverity(f *geometry.Field) float64 {
	_, sev := a.pass(f, a.die(), false, true)
	return sev
}

// MaxSeverityIn returns the peak severity over the cells (ix, iy) with
// ix0 ≤ ix ≤ ix1 and iy0 ≤ iy ≤ iy1, clipped to the die, and 0 when
// none is left. Each cell's MLTD still takes its whole on-die disk.
func (a *Analyzer) MaxSeverityIn(f *geometry.Field, ix0, iy0, ix1, iy1 int) float64 {
	_, sev := a.pass(f, cellRect{ix0, iy0, ix1, iy1}, false, true)
	return sev
}
