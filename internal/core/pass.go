package core

import (
	"math"

	"hotgauge/internal/geometry"
)

// The per-frame analysis pass: the Fig. 9 max-MLTD sample and the §V
// sev(t) sample from one sliding-window MLTD scan, with the severity
// maximum found by evaluating Equation 2 only where it can still matter.
//
// Severity costs three exponentials per cell. Its upper bound
//
//	U(T, m) = σ_df(T) + max(0, σ_M(m))·σ_T(T)
//
// is at least sev(T, m) (σ_T > 0, so the timing term only grows when a
// negative σ_M is raised to 0, and clipping only lowers the value) and
// does not decrease in either argument. Seeded with the exact severity
// at the hottest cell and at the highest-MLTD cell, the pass bisects,
// once per frame, for an MLTD cut mCut with U(Tmax, mCut) < best − δ
// and a temperature cut tCut with U(tCut, MLTDmax) < best − δ. A cell
// with m ≤ mCut or T ≤ tCut then has sev ≤ U < best, so it cannot raise
// the maximum and is skipped. δ is many orders of magnitude above the
// few-ulp rounding of the sigmoids, so the bound holds in floating
// point too: the result is bit-equal to evaluating Severity at every
// cell, which pass_equiv_test.go enforces.

const (
	// cutMargin is δ: how far below the running best a cut's bound must
	// sit. Severity lies in [0, 1], where the sigmoids round within
	// about 1e-15.
	cutMargin = 1e-9
	// cutSteps is the bisection depth per cut; each step costs one bound
	// evaluation and a looser cut only admits a few more cells.
	cutSteps = 30
)

// severityBound is U(T, m), the upper bound of Severity that does not
// decrease in either argument.
func severityBound(t, m float64) float64 {
	return SigmaDF(t) + math.Max(0, SigmaM(m))*SigmaT(t)
}

// MaxMLTDSeverity returns the maximum MLTD and the peak hotspot
// severity over the die — the Fig. 9 and §V sev(t) samples of one frame
// — from a single MLTD scan. Both equal the maxima over cells of MLTDAt
// and of Severity(T, MLTDAt) exactly. Allocation-free after the
// analyzer's first scan.
func (a *Analyzer) MaxMLTDSeverity(f *geometry.Field) (mltd, sev float64) {
	return maxMLTDSeverity(f.Data, a.mltdScan(f))
}

// MaxSeverity returns the peak hotspot severity over the die: the sev(t)
// series of §V. It is the severity half of MaxMLTDSeverity.
func (a *Analyzer) MaxSeverity(f *geometry.Field) float64 {
	_, sev := a.MaxMLTDSeverity(f)
	return sev
}

// maxMLTDSeverity computes max(0, max m) and the maximum of
// Severity(temps[i], m[i]) over cells, NaN cells ignored as in the
// per-cell references.
func maxMLTDSeverity(temps, m []float64) (mltd, sev float64) {
	tMin, tMax, mMin := math.Inf(1), math.Inf(-1), math.Inf(1)
	iT, iM := -1, -1
	for i, t := range temps {
		if t < tMin {
			tMin = t
		}
		if t > tMax {
			tMax, iT = t, i
		}
		v := m[i]
		if v < mMin {
			mMin = v
		}
		if v > mltd {
			mltd, iM = v, i
		}
	}

	for _, i := range [2]int{iT, iM} {
		if i < 0 {
			continue
		}
		if s := Severity(temps[i], m[i]); s > sev {
			sev = s
		}
	}
	if sev >= 1 {
		return mltd, sev
	}

	mCut, tCut, prune := severityCuts(tMin, tMax, mMin, mltd, sev)
	for i, t := range temps {
		v := m[i]
		if prune && (v <= mCut || t <= tCut) {
			continue
		}
		if s := Severity(t, v); s > sev {
			sev = s
			if sev >= 1 {
				break
			}
		}
	}
	return mltd, sev
}

// severityCuts returns the MLTD and temperature cuts for a frame whose
// temperatures span [tMin, tMax] and MLTDs [mMin, mMax] (NaNs aside),
// given an exact severity best of some cell: every cell with m ≤ mCut
// or T ≤ tCut has severity below best. prune is false when no cell may
// be skipped: the extremes are not finite (there is nothing to bisect
// between) or best is too small to cut below.
func severityCuts(tMin, tMax, mMin, mMax, best float64) (mCut, tCut float64, prune bool) {
	if best < cutMargin || math.IsInf(tMin, 0) || math.IsInf(tMax, 0) ||
		math.IsInf(mMin, 0) || math.IsInf(mMax, 0) {
		return 0, 0, false
	}
	target := best - cutMargin
	mCut = cutBelow(func(x float64) float64 { return severityBound(tMax, x) }, mMin, mMax, target)
	tCut = cutBelow(func(x float64) float64 { return severityBound(x, mMax) }, tMin, tMax, target)
	return mCut, tCut, true
}

// cutBelow bisects [lo, hi] for a large x with u(x) < target, u
// non-decreasing, and returns it; -Inf when u(lo) already reaches
// target, so that no value is cut.
func cutBelow(u func(float64) float64, lo, hi, target float64) float64 {
	if !(u(lo) < target) {
		return math.Inf(-1)
	}
	for i := 0; i < cutSteps; i++ {
		mid := lo/2 + hi/2
		if mid <= lo || mid >= hi {
			break
		}
		if u(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
