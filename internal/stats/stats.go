package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It selects on a copy of xs.
// Any NaN in xs makes the result NaN: NaNs are unordered, so order
// statistics over a NaN-bearing slice would otherwise depend on the
// input order. Propagating NaN keeps the poison visible and
// deterministic.
func Percentile(xs []float64, p float64) float64 {
	var out [1]float64
	new(Selector).Percentiles(out[:], xs, p)
	return out[0]
}

// Percentiles evaluates several percentiles with a single selection
// pass. Like Percentile, a NaN anywhere in xs makes every output NaN.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	new(Selector).Percentiles(out, xs, ps...)
	return out
}

// Selector evaluates percentiles, like the package-level Percentiles,
// in buffers it keeps between calls, so a loop over same-sized inputs
// allocates only on its first call. The zero value is ready to use; a
// Selector must not be shared between goroutines.
type Selector struct {
	buf   []float64
	ranks []int
}

// Percentiles writes the ps percentiles of xs into out, which must hold
// len(ps) values. A NaN anywhere in xs, or an empty xs, makes every
// output NaN.
//
// Only the order statistics the interpolation reads are placed, by
// multi-target introselect (selectRanks), and each equals what a full
// sort would put at its rank; so the result equals interpolating a
// sorted copy, at O(n) expected cost instead of O(n log n).
func (sel *Selector) Percentiles(out, xs []float64, ps ...float64) {
	if len(xs) == 0 || hasNaN(xs) {
		for i := range ps {
			out[i] = math.NaN()
		}
		return
	}
	s := append(sel.buf[:0], xs...)
	ranks := sel.ranks[:0]
	for _, p := range ps {
		lo, hi, _ := percentilePos(p, len(s))
		ranks = append(ranks, lo, hi)
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	selectRanks(s, 0, ranks, selectDepth(len(s)))
	for i, p := range ps {
		out[i] = percentileAt(s, p)
	}
	sel.buf, sel.ranks = s, ranks
}

func hasNaN(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// percentilePos locates the p-th percentile of n sorted values: it
// interpolates between ranks lo and hi (equal when one order statistic
// is the answer) with weight frac on hi.
func percentilePos(p float64, n int) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	pos := p / 100 * float64(n-1)
	lo = int(math.Floor(pos))
	if lo+1 >= n {
		return lo, lo, 0
	}
	return lo, lo + 1, pos - float64(lo)
}

// percentileAt reads the p-th percentile from s, whose ranks
// percentilePos names must hold their order statistics.
func percentileAt(s []float64, p float64) float64 {
	lo, hi, frac := percentilePos(p, len(s))
	if lo == hi {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[hi]*frac
}

// selectDepth is introselect's partition-depth budget for n values:
// twice the depth of a balanced partition tree.
func selectDepth(n int) int { return 2 * bits.Len(uint(n)) }

// selectRanks reorders s, which holds ranks base.. of a NaN-free
// slice, so that s[k-base] holds the k-th smallest value for every k in
// ks (ascending, distinct). It is introselect: a three-way partition
// around the median of the first, middle and last values, descending
// only into the parts that hold a wanted rank. Once a part has used up
// depth partitions it is sorted instead, so adversarial inputs cost
// O(n log n), not O(n²). It returns the work done — elements
// partitioned, plus n·log₂n per sorted part of n — which the tests bound.
func selectRanks(s []float64, base int, ks []int, depth int) (work int) {
	for len(ks) > 0 {
		n := len(s)
		if n <= 16 || depth == 0 {
			slices.Sort(s)
			return work + n*bits.Len(uint(n))
		}
		depth--
		lt, gt := partition3(s, medianOfThree(s[0], s[n/2], s[n-1]))
		work += n
		i, _ := slices.BinarySearch(ks, base+lt)
		j, _ := slices.BinarySearch(ks, base+gt)
		work += selectRanks(s[:lt], base, ks[:i], depth)
		s, base, ks = s[gt:], base+gt, ks[j:]
	}
	return work
}

// partition3 reorders s into values below p, equal to p and above p,
// returning the bounds: s[:lt] < p, s[lt:gt] == p, s[gt:] > p.
func partition3(s []float64, p float64) (lt, gt int) {
	i, gt := 0, len(s)
	for i < gt {
		switch v := s[i]; {
		case v < p:
			s[lt], s[i] = v, s[lt]
			lt++
			i++
		case v > p:
			gt--
			s[i], s[gt] = s[gt], v
		default:
			i++
		}
	}
	return lt, gt
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// Box is a five-number box-and-whisker summary (Fig. 11's plot elements:
// the box spans Q1..Q3, whiskers span min..max).
type Box struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// BoxOf summarizes xs. A NaN anywhere in xs makes every summary value
// NaN (N still reports the input length), matching Percentile's
// deterministic propagation.
func BoxOf(xs []float64) Box {
	var q [5]float64
	new(Selector).Percentiles(q[:], xs, 0, 25, 50, 75, 100)
	return Box{N: len(xs), Min: q[0], Q1: q[1], Median: q[2], Q3: q[3], Max: q[4]}
}

// IQR returns the interquartile range.
func (b Box) IQR() float64 { return b.Q3 - b.Q1 }

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RMS returns the root mean square of xs — the §V-B aggregation of
// sev(t), chosen because it weights high-severity intervals more than
// proportionally (1 ms at severity X is worse than 2 ms at X/2).
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v * v
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Histogram is a fixed-range linear-bin histogram. Values outside the
// range clamp into the end bins so mass is never lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram over [lo, hi) with the given bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: invalid histogram range [%v,%v)/%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records a value.
func (h *Histogram) Add(v float64) {
	bin := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// AddAll records every value of xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, v := range xs {
		h.Add(v)
	}
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Normalized returns bin frequencies summing to 1 (all zeros when empty).
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Peak returns the center and frequency of the most populated bin.
func (h *Histogram) Peak() (center, freq float64) {
	best, bi := -1, 0
	for i, c := range h.Counts {
		if c > best {
			best, bi = c, i
		}
	}
	if h.total == 0 {
		return h.BinCenter(bi), 0
	}
	return h.BinCenter(bi), float64(best) / float64(h.total)
}

// Spread returns the value range covering the central `frac` of mass
// (e.g. 0.98 gives a robust width measure of the distribution — the
// Fig. 2 "variance widening" comparison).
func (h *Histogram) Spread(frac float64) float64 {
	if h.total == 0 {
		return 0
	}
	tail := (1 - frac) / 2
	loCut := int(math.Ceil(tail * float64(h.total)))
	hiCut := h.total - loCut
	cum := 0
	lo, hi := h.Lo, h.Hi
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if prev < loCut && cum >= loCut {
			lo = h.BinCenter(i)
		}
		if prev < hiCut && cum >= hiCut {
			hi = h.BinCenter(i)
			break
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
