package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// insertRef is the value-at-a-time path InsertBatch replaced, kept here as
// the reference: append one value, flush with the comparison sort and the
// allocating merge-then-compress when the buffer is full. It skips NaN, the
// one thing the old path got wrong.
func insertRef(g *GK, v float64) {
	if v != v {
		return
	}
	g.buf = append(g.buf, v)
	if len(g.buf) >= g.bufCap {
		flushAllocating(g)
	}
}

func encodeRef(g *GK) []byte {
	flushAllocating(g)
	return g.Encode(nil)
}

// checkBatchEquivalence feeds xs to three sketches — the reference, Insert
// one value at a time, and InsertBatch cut where cuts says (one whole batch
// when cuts is empty) — and requires identical codec bytes.
func checkBatchEquivalence(t *testing.T, eps float64, xs []float64, cuts []byte) {
	t.Helper()
	ref, single, batch := NewGK(eps), NewGK(eps), NewGK(eps)
	for _, v := range xs {
		insertRef(ref, v)
		single.Insert(v)
	}
	batch.InsertBatch(nil)
	for rest, k := xs, 0; len(rest) > 0; k++ {
		n := len(rest)
		if len(cuts) > 0 {
			// Up to 766 values: a batch can end short of a flush boundary, on
			// it, or span one.
			n = 1 + int(cuts[k%len(cuts)])*3%len(rest)
		}
		batch.InsertBatch(rest[:n])
		rest = rest[n:]
	}
	want := encodeRef(ref)
	if got := single.Encode(nil); !bytes.Equal(got, want) {
		t.Fatalf("eps %g, %d values: Insert differs from the reference path", eps, len(xs))
	}
	if got := batch.Encode(nil); !bytes.Equal(got, want) {
		t.Fatalf("eps %g, %d values, cuts %v: InsertBatch differs from the reference path", eps, len(xs), cuts)
	}
	if got, want := batch.Count(), single.Count(); got != want {
		t.Fatalf("Count %d, want %d", got, want)
	}
}

// streamKinds generates the value shapes the property and the fuzz seeds
// cover: what a flush sorts by bit pattern, what it must not, and what never
// enters the sketch.
var streamKinds = []struct {
	name string
	gen  func(rng *rand.Rand, i int) float64
}{
	{"small-ints", func(rng *rand.Rand, i int) float64 { return float64(rng.Intn(100000)) }},
	{"ascending", func(rng *rand.Rand, i int) float64 { return float64(i) }},
	{"descending", func(rng *rand.Rand, i int) float64 { return float64(1<<20 - i) }},
	{"all-equal", func(rng *rand.Rand, i int) float64 { return 42 }},
	{"few-distinct", func(rng *rand.Rand, i int) float64 { return float64(rng.Intn(7)) }},
	{"fractions", func(rng *rand.Rand, i int) float64 { return rng.Float64() * 1e4 }},
	{"negatives", func(rng *rand.Rand, i int) float64 { return rng.NormFloat64() * 1e3 }},
	{"signed-zeros", func(rng *rand.Rand, i int) float64 {
		return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
	}},
	{"above-2^53", func(rng *rand.Rand, i int) float64 { return float64(int64(1)<<53 + rng.Int63n(1<<40)) }},
	{"with-nan", func(rng *rand.Rand, i int) float64 {
		if rng.Intn(50) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(1000))
	}},
	{"with-inf", func(rng *rand.Rand, i int) float64 {
		switch rng.Intn(40) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return rng.ExpFloat64()
	}},
	{"denormals", func(rng *rand.Rand, i int) float64 { return math.Float64frombits(uint64(rng.Intn(1 << 20))) }},
}

// TestGKBatchMatchesOneAtATime is the differential property: for every value
// shape, at lengths on and around the buffer boundaries, however the stream
// is cut into batches, InsertBatch, Insert and the reference path produce the
// same bytes.
func TestGKBatchMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, eps := range []float64{0.05, 0.005, 0.001} {
		bufCap := NewGK(eps).bufCap
		lengths := []int{0, 1, 2, bufCap - 1, bufCap, bufCap + 1, 2*bufCap - 1, 2 * bufCap, 2*bufCap + 1, 7*bufCap + 13}
		for _, kind := range streamKinds {
			for _, n := range lengths {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = kind.gen(rng, i)
				}
				checkBatchEquivalence(t, eps, xs, nil) // one batch
				cuts := make([]byte, 1+rng.Intn(8))
				rng.Read(cuts)
				checkBatchEquivalence(t, eps, xs, cuts)
				if t.Failed() {
					t.Fatalf("failed on %s, %d values", kind.name, n)
				}
			}
		}
	}
}

// FuzzGKBatch runs the same property over arbitrary bit patterns and cuts.
// The seeds are short — a little over one buffer at ε = 0.05 — because the
// fuzzer minimizes every input that finds new coverage, and on a long one
// that eats a bounded run; the mutator grows them past the larger buffers.
func FuzzGKBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range streamKinds {
		raw := make([]byte, 0, 8*70)
		for i := 0; i < 70; i++ {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(kind.gen(rng, i)))
		}
		f.Add(raw, []byte{3, 200, 0, 17})
	}
	f.Fuzz(func(t *testing.T, raw, cuts []byte) {
		if len(raw) > 8*4096 {
			raw = raw[:8*4096]
		}
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkBatchEquivalence(t, 0.05, xs, cuts)
		checkBatchEquivalence(t, 0.005, xs, cuts)
		checkSortOrder(t, xs)
	})
}

// checkSortOrder requires sortFloats to leave xs (NaN removed: none reaches a
// buffer) in the exact sequence sort.Float64s does, bit for bit.
func checkSortOrder(t *testing.T, xs []float64) {
	t.Helper()
	var got []float64
	for _, v := range xs {
		if v == v {
			got = append(got, v)
		}
	}
	want := append([]float64(nil), got...)
	sort.Float64s(want)
	sortFloats(got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sortFloats: position %d of %d is %v (%#x), sort.Float64s has %v (%#x)",
				i, len(want), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSortFloatsMatchesComparisonSort holds the radix order to the comparison
// sort's on every value shape, at sizes on both sides of the radix limit.
func TestSortFloatsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kind := range streamKinds {
		for _, n := range []int{0, 1, 2, 3, 63, 64, 399, 400, radixMax, radixMax + 1, 2000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = kind.gen(rng, i)
			}
			checkSortOrder(t, xs)
			if t.Failed() {
				t.Fatalf("failed on %s, %d values", kind.name, n)
			}
		}
	}
}

// TestGKNaNHasNoRank is the regression for the corrupted summary: one NaN
// between two runs used to sort to the front of its buffer, compare false
// against every entry, and push the whole existing summary ahead of the
// buffer — an unsorted summary whose maximum read 200 and whose median 399.
func TestGKNaNHasNoRank(t *testing.T) {
	g := NewGK(0.005)
	for i := 1000; i >= 1; i-- {
		g.Insert(float64(i))
	}
	g.Insert(math.NaN())
	for i := 0; i < 1000; i++ {
		g.Insert(float64(i % 7))
	}
	if got := g.Count(); got != 2000 {
		t.Errorf("Count = %d, want 2000 (NaN is not counted by the quantile sketch)", got)
	}
	g.Quantile(0) // flush
	for i := 1; i < len(g.entries); i++ {
		if g.entries[i].Value < g.entries[i-1].Value {
			t.Fatalf("summary unsorted at entry %d: %v after %v", i, g.entries[i].Value, g.entries[i-1].Value)
		}
	}
	if mx, _ := g.Max(); mx != 1000 {
		t.Errorf("Max = %v, want 1000", mx)
	}
	if mn, _ := g.Min(); mn != 0 {
		t.Errorf("Min = %v, want 0", mn)
	}
	// Half the stream is 0..6 and the other half 1..1000: the median sits at
	// the seam, within ε·n = 10 ranks of it.
	if med, _ := g.Quantile(0.5); med < 6 || med > 17 {
		t.Errorf("median = %v, want about 6", med)
	}
	hist := g.Histogram(10)
	var total int64
	for i, b := range hist {
		if b.Hi < b.Lo || (i > 0 && b.Lo != hist[i-1].Hi) {
			t.Errorf("histogram bucket %d = %+v is out of order", i, b)
		}
		total += b.Count
	}
	if total != 2000 {
		t.Errorf("histogram counts sum to %d, want 2000", total)
	}
	if got := g.EstimateRange(0, 6); got < 950 || got > 1060 {
		t.Errorf("EstimateRange(0, 6) = %d, want about 1006", got)
	}
	if got := g.EstimateRange(501, 1000); got < 450 || got > 550 {
		t.Errorf("EstimateRange(501, 1000) = %d, want about 500", got)
	}
	// A sketch fed only NaN stays empty.
	e := NewGK(0.005)
	e.InsertBatch([]float64{math.NaN(), math.NaN()})
	if _, ok := e.Quantile(0.5); ok || e.Count() != 0 {
		t.Errorf("NaN-only sketch: count %d, quantile ok=%v; want empty", e.Count(), ok)
	}
}

// TestGKInsertBatchWarmDoesNotAllocate: once the buffer and both summaries
// have their storage, a 1024-value batch — two and a half flushes — costs no
// allocation at all.
func TestGKInsertBatchWarmDoesNotAllocate(t *testing.T) {
	g := NewGK(0.005)
	rng := rand.New(rand.NewSource(24))
	window := make([]float64, 1024)
	fill := func() {
		for i := range window {
			window[i] = float64(rng.Intn(1 << 20))
		}
	}
	for i := 0; i < 100; i++ {
		fill()
		g.InsertBatch(window)
	}
	fill()
	if allocs := testing.AllocsPerRun(50, func() { g.InsertBatch(window) }); allocs != 0 {
		t.Errorf("warm InsertBatch of %d values: %.2f allocations, want 0", len(window), allocs)
	}
}

// BenchmarkGKInsertBatch times the batch insert on a warm sketch at the
// statistics framework's ε, per value, on the key shapes sinks see.
func BenchmarkGKInsertBatch(b *testing.B) {
	for _, kind := range streamKinds[:6] {
		b.Run(kind.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(25))
			window := make([]float64, 1024)
			for i := range window {
				window[i] = kind.gen(rng, i)
			}
			g := NewGK(0.005)
			for i := 0; i < 50; i++ {
				g.InsertBatch(window)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InsertBatch(window)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(window)), "ns/value")
		})
	}
}

// mergeAllocating is the Merge that made a fresh summary per call, kept as
// the reference for the one that adopts the snapshot or merges into retained
// storage.
func mergeAllocating(g, other *GK) {
	flushAllocating(other)
	otherEntries := append([]gkEntry(nil), other.entries...)
	flushAllocating(g)
	if other.n == 0 {
		return
	}
	merged := make([]gkEntry, 0, len(g.entries)+len(otherEntries))
	i, j := 0, 0
	for i < len(g.entries) || j < len(otherEntries) {
		switch {
		case i >= len(g.entries):
			merged = append(merged, otherEntries[j])
			j++
		case j >= len(otherEntries):
			merged = append(merged, g.entries[i])
			i++
		case g.entries[i].Value <= otherEntries[j].Value:
			merged = append(merged, g.entries[i])
			i++
		default:
			merged = append(merged, otherEntries[j])
			j++
		}
	}
	g.entries = merged
	g.n += other.n
	g.compress()
}

// TestGKMergeMatchesAllocatingMerge folds partition sketches into one the way
// a sink's Finish does — into an empty sketch first, then one after another,
// empty and single-value partitions among them — and requires the bytes of
// the allocating reference after every step, with the sources left intact.
func TestGKMergeMatchesAllocatingMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, kind := range streamKinds {
		got, want := NewGK(0.005), NewGK(0.005)
		for part, n := range []int{900, 0, 1, 2500, 399, 400, 1200} {
			a, b := NewGK(0.005), NewGK(0.005)
			for i := 0; i < n; i++ {
				v := kind.gen(rng, i)
				a.Insert(v)
				insertRef(b, v)
			}
			got.Merge(a)
			mergeAllocating(want, b)
			if !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
				t.Fatalf("%s: merged summary differs after partition %d (%d values)", kind.name, part, n)
			}
			if !bytes.Equal(a.Encode(nil), b.Encode(nil)) {
				t.Fatalf("%s: Merge changed its source, partition %d", kind.name, part)
			}
		}
		// The merged sketch keeps taking values like any other.
		for i := 0; i < 1000; i++ {
			v := kind.gen(rng, i)
			got.Insert(v)
			insertRef(want, v)
		}
		if !bytes.Equal(got.Encode(nil), encodeRef(want)) {
			t.Fatalf("%s: inserts after Merge diverge from the reference", kind.name)
		}
	}
}
