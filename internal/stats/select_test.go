package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// Selection against sorting: Percentiles, Percentile, BoxOf and the
// reusable Selector place only the order statistics they read, and each
// must equal what sorting a copy and interpolating gives (==).

// sortedPercentiles is the sort-based reference: copy, sort, interpolate.
func sortedPercentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	s := append([]float64(nil), xs...)
	for _, v := range s {
		if math.IsNaN(v) {
			s = nil
			break
		}
	}
	sort.Float64s(s)
	for i, p := range ps {
		switch {
		case len(s) == 0:
			out[i] = math.NaN()
		case p <= 0:
			out[i] = s[0]
		case p >= 100:
			out[i] = s[len(s)-1]
		default:
			pos := p / 100 * float64(len(s)-1)
			lo := int(math.Floor(pos))
			frac := pos - float64(lo)
			if lo+1 >= len(s) {
				out[i] = s[lo]
			} else {
				out[i] = s[lo]*(1-frac) + s[lo+1]*frac
			}
		}
	}
	return out
}

func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

var selectPs = []float64{0, 0.5, 5, 25, 33.3, 50, 75, 95, 99.9, 100}

func selectInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	in := map[string][]float64{
		"length-1":  {42},
		"length-2":  {7, -3},
		"all-equal": make([]float64, 500),
		"with-NaN":  {3, 1, math.NaN(), 2},
		"NaN-only":  {math.NaN()},
		"with-Inf":  {5, math.Inf(1), -2, math.Inf(-1), 9, 0},
	}
	for i := range in["all-equal"] {
		in["all-equal"][i] = 61.25
	}
	for _, n := range []int{3, 17, 100, 1001, 5642} {
		random, dups := make([]float64, n), make([]float64, n)
		for i := range random {
			random[i] = 40 + 80*rng.Float64()
			dups[i] = float64(rng.Intn(5))
		}
		sorted := append([]float64(nil), random...)
		sort.Float64s(sorted)
		reversed := make([]float64, n)
		for i, v := range sorted {
			reversed[n-1-i] = v
		}
		key := strconv.Itoa(n)
		in["random-"+key], in["duplicates-"+key] = random, dups
		in["sorted-"+key], in["reversed-"+key] = sorted, reversed
	}
	return in
}

func TestSelectionMatchesSorting(t *testing.T) {
	var sel Selector
	for name, xs := range selectInputs() {
		orig := append([]float64(nil), xs...)
		want := sortedPercentiles(xs, selectPs...)
		got := Percentiles(xs, selectPs...)
		reused := make([]float64, len(selectPs))
		sel.Percentiles(reused, xs, selectPs...)
		for i, p := range selectPs {
			if !sameFloat(got[i], want[i]) || !sameFloat(reused[i], want[i]) {
				t.Fatalf("%s P%v: Percentiles %v, Selector %v, sorted %v", name, p, got[i], reused[i], want[i])
			}
			if one := Percentile(xs, p); !sameFloat(one, want[i]) {
				t.Fatalf("%s P%v: Percentile %v, sorted %v", name, p, one, want[i])
			}
		}
		box := BoxOf(xs)
		w := sortedPercentiles(xs, 0, 25, 50, 75, 100)
		if box.N != len(xs) || !sameFloat(box.Min, w[0]) || !sameFloat(box.Q1, w[1]) ||
			!sameFloat(box.Median, w[2]) || !sameFloat(box.Q3, w[3]) || !sameFloat(box.Max, w[4]) {
			t.Fatalf("%s: BoxOf %+v, sorted %v", name, box, w)
		}
		for i := range xs {
			if !sameFloat(xs[i], orig[i]) {
				t.Fatalf("%s: input mutated at %d", name, i)
			}
		}
	}
}

func TestSelectorAllocationFree(t *testing.T) {
	xs := make([]float64, 5642)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = 40 + 60*rng.Float64()
	}
	var sel Selector
	var out [5]float64
	sel.Percentiles(out[:], xs, 5, 25, 50, 75, 95)
	allocs := testing.AllocsPerRun(20, func() {
		sel.Percentiles(out[:], xs, 5, 25, 50, 75, 95)
	})
	if allocs != 0 {
		t.Fatalf("Selector.Percentiles allocates %v objects per call after warmup", allocs)
	}
}

// medianOfThreeKiller builds an n-value input against selectRanks' own
// pivot rule, by simulation: at every partition it gives two of the
// three pivot samples the smallest values not yet used, so the pivot is
// the second-smallest value of the part and each partition peels off
// just two values while the median rank stays in the rest. Unassigned
// cells hold placeholders above every assigned value, encoding their
// original index, and partition3 compares each value with the pivot
// only, so the simulation moves cells exactly as the real run will.
func medianOfThreeKiller(n int) []float64 {
	const placeholder = 1e9
	in, work := make([]float64, n), make([]float64, n)
	for i := range work {
		work[i] = placeholder + float64(i)
		in[i] = work[i]
	}
	next := 0.0
	assign := func(s []float64, q int) {
		in[int(s[q]-placeholder)] = next
		s[q] = next
		next++
	}
	target := n / 2
	base, s := 0, work
	for len(s) > 16 && target >= base+2 {
		assign(s, 0)
		assign(s, len(s)/2)
		_, gt := partition3(s, medianOfThree(s[0], s[len(s)/2], s[len(s)-1]))
		base, s = base+gt, s[gt:]
	}
	return in
}

func TestIntroselectBoundsMedianOfThreeKiller(t *testing.T) {
	const n = 1 << 13
	killer := medianOfThreeKiller(n)
	want := sortedPercentiles(killer, 50)[0]
	ks := []int{(n - 1) / 2, (n-1)/2 + 1}

	// Without a depth limit the input is quadratic: each partition
	// removes two values.
	s := append([]float64(nil), killer...)
	if work := selectRanks(s, 0, ks, n); work < n*n/8 {
		t.Fatalf("killer input not adversarial: unlimited-depth work %d < n²/8 = %d", work, n*n/8)
	}
	// The depth limit falls back to sorting: O(n log n).
	s = append([]float64(nil), killer...)
	work := selectRanks(s, 0, ks, selectDepth(n))
	if limit := 4 * n * bits.Len(n); work > limit {
		t.Fatalf("introselect work %d on the killer exceeds 4·n·log₂n = %d", work, limit)
	}
	if got := percentileAt(s, 50); got != want {
		t.Fatalf("killer median %v, sorted %v", got, want)
	}
	if got := Percentile(killer, 50); got != want {
		t.Fatalf("Percentile on killer %v, sorted %v", got, want)
	}
}
