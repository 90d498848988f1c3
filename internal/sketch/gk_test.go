package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestGKEmpty(t *testing.T) {
	g := NewGK(0.01)
	if _, ok := g.Quantile(0.5); ok {
		t.Error("Quantile on empty sketch reported ok")
	}
	if _, ok := g.Min(); ok {
		t.Error("Min on empty sketch reported ok")
	}
	if _, ok := g.Max(); ok {
		t.Error("Max on empty sketch reported ok")
	}
	if g.Count() != 0 {
		t.Errorf("Count = %d", g.Count())
	}
	if g.Histogram(4) != nil {
		t.Error("Histogram on empty sketch not nil")
	}
}

func TestGKInvalidEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGK(0) did not panic")
		}
	}()
	NewGK(0)
}

func TestGKExactSmall(t *testing.T) {
	g := NewGK(0.01)
	for _, v := range []float64{5, 1, 3, 2, 4} {
		g.Insert(v)
	}
	if mn, _ := g.Min(); mn != 1 {
		t.Errorf("Min = %v", mn)
	}
	if mx, _ := g.Max(); mx != 5 {
		t.Errorf("Max = %v", mx)
	}
	if med, _ := g.Quantile(0.5); med < 2 || med > 4 {
		t.Errorf("median = %v", med)
	}
	if g.Count() != 5 {
		t.Errorf("Count = %d", g.Count())
	}
}

// quantile rank-error bound: the defining property of the sketch.
func TestGKQuantileErrorBound(t *testing.T) {
	const n = 20000
	const eps = 0.02
	rng := rand.New(rand.NewSource(42))
	g := NewGK(eps)
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64() * 100
		g.Insert(data[i])
	}
	sort.Float64s(data)
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		q, ok := g.Quantile(phi)
		if !ok {
			t.Fatalf("Quantile(%v) not ok", phi)
		}
		// True rank of the answer must be within a few eps*n of phi*n
		// (merging batches can double the bound; allow 3x).
		rank := sort.SearchFloat64s(data, q)
		wantRank := phi * n
		if math.Abs(float64(rank)-wantRank) > 3*eps*n+1 {
			t.Errorf("phi=%v: returned value has rank %d, want within %v of %v",
				phi, rank, 3*eps*n, wantRank)
		}
	}
}

func TestGKQuantileErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3000
		const eps = 0.05
		g := NewGK(eps)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64() * 1000
			g.Insert(data[i])
		}
		sort.Float64s(data)
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			q, _ := g.Quantile(phi)
			rank := sort.SearchFloat64s(data, q)
			if math.Abs(float64(rank)-phi*n) > 3*eps*n+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGKCompression(t *testing.T) {
	g := NewGK(0.01)
	const n = 100000
	for i := 0; i < n; i++ {
		g.Insert(float64(i % 1000))
	}
	g.flush()
	// Summary must stay sublinear: O((1/eps) * log(eps*n)) entries.
	if len(g.entries) > 4000 {
		t.Errorf("summary size %d not compressed for n=%d", len(g.entries), n)
	}
	if g.Count() != n {
		t.Errorf("Count = %d, want %d", g.Count(), n)
	}
}

func TestGKMergePreservesCountAndBounds(t *testing.T) {
	a := NewGK(0.02)
	b := NewGK(0.02)
	for i := 0; i < 5000; i++ {
		a.Insert(float64(i))
		b.Insert(float64(i + 5000))
	}
	a.Merge(b)
	if a.Count() != 10000 {
		t.Errorf("merged Count = %d", a.Count())
	}
	if mn, _ := a.Min(); mn != 0 {
		t.Errorf("merged Min = %v", mn)
	}
	if mx, _ := a.Max(); mx != 9999 {
		t.Errorf("merged Max = %v", mx)
	}
	med, _ := a.Quantile(0.5)
	if med < 4000 || med > 6000 {
		t.Errorf("merged median = %v", med)
	}
	a.Merge(nil) // no-op
	if a.Count() != 10000 {
		t.Error("Merge(nil) changed count")
	}
}

func TestGKHistogramEquiHeight(t *testing.T) {
	g := NewGK(0.01)
	for i := 0; i < 10000; i++ {
		g.Insert(float64(i))
	}
	h := g.Histogram(10)
	if len(h) != 10 {
		t.Fatalf("bucket count = %d", len(h))
	}
	var total int64
	for i, b := range h {
		total += b.Count
		if b.Hi < b.Lo {
			t.Errorf("bucket %d: Hi %v < Lo %v", i, b.Hi, b.Lo)
		}
		// Equi-height: each bucket about n/10.
		if b.Count < 800 || b.Count > 1200 {
			t.Errorf("bucket %d count %d not ~1000", i, b.Count)
		}
	}
	if total < 9000 || total > 11000 {
		t.Errorf("total histogram mass = %d", total)
	}
	if h[len(h)-1].Hi < 9900 {
		t.Errorf("last bucket Hi = %v", h[len(h)-1].Hi)
	}
}

func TestGKEstimateRangeUniform(t *testing.T) {
	g := NewGK(0.01)
	const n = 10000
	for i := 0; i < n; i++ {
		g.Insert(float64(i))
	}
	cases := []struct {
		lo, hi float64
		want   float64
	}{
		{0, 9999, n},
		{0, 4999, n / 2},
		{2500, 7499, n / 2},
		{9000, 9999, n / 10},
		{-100, -1, 0},
		{10001, 20000, 0},
	}
	for _, c := range cases {
		got := float64(g.EstimateRange(c.lo, c.hi))
		if math.Abs(got-c.want) > 0.1*n*0.5+200 {
			t.Errorf("EstimateRange(%v,%v) = %v, want ~%v", c.lo, c.hi, got, c.want)
		}
	}
	if g.EstimateRange(5, 4) != 0 {
		t.Error("inverted range should estimate 0")
	}
}

func TestGKEstimateEqualsSkewed(t *testing.T) {
	g := NewGK(0.005)
	// 90% of the mass at value 7, the rest uniform.
	for i := 0; i < 9000; i++ {
		g.Insert(7)
	}
	for i := 0; i < 1000; i++ {
		g.Insert(float64(1000 + i))
	}
	got := g.EstimateEquals(7)
	if got < 7000 {
		t.Errorf("EstimateEquals(7) = %d, want heavy (~9000)", got)
	}
}

func TestGKRankOf(t *testing.T) {
	g := NewGK(0.01)
	for i := 0; i < 1000; i++ {
		g.Insert(float64(i))
	}
	r := g.RankOf(500)
	if r < 450 || r > 550 {
		t.Errorf("RankOf(500) = %d", r)
	}
	if g.RankOf(-1) != 0 {
		t.Errorf("RankOf(-1) = %d", g.RankOf(-1))
	}
}

func TestGKString(t *testing.T) {
	g := NewGK(0.05)
	g.Insert(1)
	if s := g.String(); s == "" {
		t.Error("String() empty")
	}
}

// flushAllocating is the flush this package shipped before the summary
// storage was retained: the same sorted merge into a freshly made slice. It
// is the reference TestGKFlushMatchesAllocatingMerge holds the swapping
// flush to, entry for entry.
func flushAllocating(g *GK) {
	if len(g.buf) == 0 {
		return
	}
	sort.Float64s(g.buf)
	merged := make([]gkEntry, 0, len(g.entries)+len(g.buf))
	bi, ei := 0, 0
	for bi < len(g.buf) || ei < len(g.entries) {
		if ei >= len(g.entries) || (bi < len(g.buf) && g.buf[bi] < g.entries[ei].Value) {
			var delta int64
			if len(merged) > 0 && (ei < len(g.entries) || bi < len(g.buf)-1) {
				delta = int64(2 * g.eps * float64(g.n))
			}
			merged = append(merged, gkEntry{Value: g.buf[bi], G: 1, Delta: delta})
			g.n++
			bi++
		} else {
			merged = append(merged, g.entries[ei])
			ei++
		}
	}
	g.entries = merged
	g.buf = g.buf[:0]
	g.compress()
}

// TestGKFlushMatchesAllocatingMerge feeds seeded streams to a sketch flushed
// by the retained-storage merge and to one flushed by the allocating
// reference, and requires the summaries to stay identical: entries, count,
// codec bytes and quantiles. A flush that read an entry after the swap had
// recycled its storage would diverge here.
func TestGKFlushMatchesAllocatingMerge(t *testing.T) {
	const n = 30000
	rng := rand.New(rand.NewSource(11))
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.NormFloat64() * 1e3
	}
	sorted := append([]float64(nil), random...)
	sort.Float64s(sorted)
	reversed := make([]float64, n)
	for i, v := range sorted {
		reversed[n-1-i] = v
	}
	equal := make([]float64, n)
	for i := range equal {
		equal[i] = 42
	}
	few := make([]float64, n)
	for i := range few {
		few[i] = float64(rng.Intn(7))
	}
	streams := map[string][]float64{
		"random": random, "sorted": sorted, "reversed": reversed, "all-equal": equal, "few-distinct": few,
	}
	for name, xs := range streams {
		for _, eps := range []float64{0.05, 0.01, 0.001} {
			got, want := NewGK(eps), NewGK(eps)
			for i, v := range xs {
				got.Insert(v)
				want.buf = append(want.buf, v)
				if len(want.buf) >= want.bufCap {
					flushAllocating(want)
				}
				// Queries flush too; interleave some so partial buffers merge.
				if i%7919 == 0 {
					got.Quantile(0.5)
					flushAllocating(want)
				}
			}
			got.Quantile(0.5)
			flushAllocating(want)
			if got.n != want.n || len(got.entries) != len(want.entries) {
				t.Fatalf("%s eps %g: n %d/%d entries %d/%d", name, eps, got.n, want.n, len(got.entries), len(want.entries))
			}
			for i := range want.entries {
				if got.entries[i] != want.entries[i] {
					t.Fatalf("%s eps %g: entry %d = %+v, want %+v", name, eps, i, got.entries[i], want.entries[i])
				}
			}
			if g, w := got.Encode(nil), want.Encode(nil); string(g) != string(w) {
				t.Errorf("%s eps %g: codec bytes differ", name, eps)
			}
			for _, phi := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
				g, _ := got.Quantile(phi)
				w, _ := want.Quantile(phi)
				if g != w {
					t.Errorf("%s eps %g: quantile(%g) = %v, want %v", name, eps, phi, g, w)
				}
			}
		}
	}
}

// TestGKInsertSteadyStateDoesNotAllocate bounds Insert on a warmed-up
// sketch: the buffer, the summary and its spare are all retained, so a run
// of inserts spanning many flushes allocates (next to) nothing. Before the
// spare was retained every flush made a new summary.
func TestGKInsertSteadyStateDoesNotAllocate(t *testing.T) {
	g := NewGK(0.01)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		g.Insert(rng.Float64())
	}
	const perRun = 10000 // 50 flushes at bufCap 200
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			g.Insert(rng.Float64())
		}
	})
	// The summary still grows logarithmically with n, so an occasional
	// regrowth is legitimate; one per flush is not.
	if allocs > 2 {
		t.Errorf("steady-state Insert: %.1f allocations per %d inserts, want <= 2", allocs, perRun)
	}
}
