// Package sketch implements the two streaming summaries the paper's
// statistics framework relies on (§4): Greenwald-Khanna quantile sketches,
// from which equi-height histogram buckets are extracted for selectivity
// estimation, and HyperLogLog sketches for the distinct-value counts used by
// the join-cardinality formula |A ⋈k B| = S(A)·S(B)/max(U(A.k), U(B.k)).
//
// Both sketches are mergeable so per-partition collectors can run in
// parallel during ingestion and materialization and be combined at the
// coordinator, matching the shared-nothing setting.
package sketch

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// gkEntry is one tuple of the GK summary: Value with weight G (number of
// observations it stands for) and Delta (uncertainty of its rank).
type gkEntry struct {
	Value float64
	G     int64
	Delta int64
}

// GK is a Greenwald-Khanna ε-approximate quantile sketch over float64
// observations. Quantile queries are accurate to ±ε·n ranks. The zero value
// is not usable; construct with NewGK.
//
// All methods are safe for concurrent use: queries flush the insertion
// buffer (a structural mutation), and base-dataset sketches are read by
// every concurrently planning query, so even the read path must serialize.
type GK struct {
	mu      sync.Mutex
	eps     float64
	entries []gkEntry
	spare   []gkEntry // the previous summary's storage: flush merges into it and swaps
	n       int64
	buf     []float64 // insertion buffer, flushed in sorted batches
	bufCap  int
}

// NewGK returns a GK sketch with error bound eps (e.g. 0.01 keeps quantiles
// within 1% of true rank).
func NewGK(eps float64) *GK {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("sketch: invalid GK epsilon %v", eps))
	}
	bufCap := int(1/eps) * 2
	if bufCap < 64 {
		bufCap = 64
	}
	return &GK{eps: eps, bufCap: bufCap}
}

// Epsilon returns the sketch's rank-error bound.
func (g *GK) Epsilon() float64 { return g.eps }

// Count returns the number of observations inserted so far.
func (g *GK) Count() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n + int64(len(g.buf))
}

// Insert adds one observation to the sketch: InsertBatch of one value.
//
//dynopt:hotpath
func (g *GK) Insert(v float64) {
	one := [1]float64{v}
	g.InsertBatch(one[:])
}

// InsertBatch adds the observations in order, taking the lock once. The
// buffer is flushed at exactly the boundaries a run of Insert calls would
// flush it — whenever it reaches bufCap — so the summary does not depend on
// how a stream was cut into batches. NaN has no rank and is skipped: it would
// sort ahead of every number and then compare false against every entry,
// which used to push the whole summary in front of the buffer.
//
//dynopt:hotpath
func (g *GK) InsertBatch(vs []float64) {
	g.mu.Lock()
	if g.buf == nil && len(vs) > 0 {
		g.buf = make([]float64, 0, g.bufCap) //dynopt:alloc-ok once per sketch: the insertion buffer at its final size
	}
	buf := g.buf
	for _, v := range vs {
		if v != v {
			continue
		}
		buf = append(buf, v)
		if len(buf) >= g.bufCap {
			g.buf = buf
			g.flush()
			buf = g.buf
		}
	}
	g.buf = buf
	g.mu.Unlock()
}

// flush sorts the buffered observations and folds them into the summary in
// one pass that merges and compresses together: each merged entry either
// absorbs the one before it — what compress, run afterwards, would have
// merged into its successor — or is written after it, so the summary comes
// out as merge-then-compress leaves it, entry for entry. The pass writes into
// the storage of the summary before last and the two swap, so a sketch in
// steady state flushes without allocating. The caller must hold g.mu.
//
//dynopt:hotpath
func (g *GK) flush() {
	buf, entries := g.buf, g.entries
	if len(buf) == 0 {
		return
	}
	sortFloats(buf)
	// The previous summary's storage takes the new one. Storage too small to
	// start from (none yet, or a few entries from an early partial flush) is
	// sized here once — a buffer's worth, or the current summary and a quarter
	// — and a summary that outgrows it later grows it by append's rule.
	out := g.spare[:cap(g.spare)]
	if len(out) < min(len(entries)+len(buf), g.bufCap) {
		out = make([]gkEntry, max(min(len(buf), g.bufCap), len(entries)+len(entries)/4)) //dynopt:alloc-ok the summary's storage, sized once and then reused
	}
	twoEps, n := 2*g.eps, g.n
	// compress's threshold: 2·ε·n once every buffered value has been counted.
	threshold := int64(twoEps * float64(n+int64(len(buf))))
	// out[k] is the last merged entry, its fate undecided until the next is
	// known: the next either absorbs it, taking its place, or goes after it.
	k := -1
	bi, ei := 0, 0
	for bi < len(buf) || ei < len(entries) {
		var e gkEntry
		if ei >= len(entries) || (bi < len(buf) && buf[bi] < entries[ei].Value) {
			e = gkEntry{Value: buf[bi], G: 1}
			// A new observation inserted in the interior carries
			// delta = floor(2·ε·n); at the extremes delta = 0.
			if k >= 0 && (ei < len(entries) || bi < len(buf)-1) {
				e.Delta = int64(twoEps * float64(n))
			}
			n++
			bi++
		} else {
			e = entries[ei]
			ei++
		}
		if k >= 1 && out[k].G+e.G+e.Delta <= threshold {
			// Combined uncertainty stays within 2·ε·n: out[k] merges into e.
			// (out[0], the minimum, is always kept.)
			e.G += out[k].G
		} else if k++; k == len(out) {
			out = append(out, e)
			out = out[:cap(out)]
		}
		out[k] = e
	}
	out = out[:k+1] // the maximum is always kept
	g.n = n
	g.entries, g.spare = out, entries[:0]
	g.buf = buf[:0]
}

// radixMax is the largest buffer the radix sort takes: its scratch is a
// stack array of this many values. Larger buffers (ε below 1/256) keep the
// comparison sort.
const radixMax = 512

// infBits is +Inf's bit pattern, the largest pattern whose order among
// patterns is its order among numbers.
const infBits = 0x7FF0000000000000

// sortFloats sorts buf ascending. A buffer of non-negative numbers (sign bit
// clear, no NaN) is ordered by IEEE bit pattern, which for such values is
// numeric order — and equal values have equal patterns, so the result is
// the very sequence sort.Float64s produces: found sorted in the scan and
// left alone, or sorted by a byte-wise LSD radix over the bytes that differ
// (integers that fit a float's mantissa leave the low bytes zero, keys of one
// table share the high ones: three passes is typical). Anything else keeps
// the comparison sort, whose every compare on fresh data is a coin flip to
// the branch predictor — the radix has no data-dependent branch.
//
//dynopt:hotpath
func sortFloats(buf []float64) {
	if len(buf) < 2 {
		return
	}
	first := math.Float64bits(buf[0])
	var diff uint64
	top, prev, sorted := first, first, true
	for _, v := range buf {
		b := math.Float64bits(v)
		diff |= b ^ first
		top = max(top, b)
		sorted = sorted && b >= prev
		prev = b
	}
	if top > infBits || len(buf) > radixMax {
		sort.Float64s(buf)
		return
	}
	if sorted {
		return
	}
	var scratch [radixMax]float64
	src, dst := buf, scratch[:len(buf)]
	for shift := 0; shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var pos [256]int32
		for _, v := range src {
			pos[byte(math.Float64bits(v)>>shift)]++
		}
		var at int32
		for d := range pos {
			pos[d], at = at, at+pos[d]
		}
		for _, v := range src {
			d := byte(math.Float64bits(v) >> shift)
			dst[pos[d]] = v
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &buf[0] {
		copy(buf, src)
	}
}

// compress removes entries whose combined uncertainty stays within 2·ε·n.
func (g *GK) compress() {
	if len(g.entries) < 3 {
		return
	}
	threshold := int64(2 * g.eps * float64(g.n))
	out := g.entries[:1] // always keep the minimum
	for i := 1; i < len(g.entries)-1; i++ {
		e := g.entries[i]
		next := g.entries[i+1]
		if e.G+next.G+next.Delta <= threshold {
			// Merge e into its successor.
			g.entries[i+1].G += e.G
			continue
		}
		out = append(out, e)
	}
	out = append(out, g.entries[len(g.entries)-1])
	g.entries = out
}

// Quantile returns an ε-approximate φ-quantile (φ in [0,1]). Returns ok=false
// for an empty sketch.
func (g *GK) Quantile(phi float64) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.quantileLocked(phi)
}

func (g *GK) quantileLocked(phi float64) (float64, bool) {
	g.flush()
	if g.n == 0 {
		return 0, false
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	targetRank := int64(math.Ceil(phi * float64(g.n)))
	if targetRank < 1 {
		targetRank = 1
	}
	margin := int64(g.eps * float64(g.n))
	var rank int64
	for i, e := range g.entries {
		rank += e.G
		if rank+e.Delta >= targetRank-margin && (i == len(g.entries)-1 || rank >= targetRank-margin) {
			if rank+e.Delta >= targetRank {
				return e.Value, true
			}
		}
		if rank >= targetRank {
			return e.Value, true
		}
	}
	return g.entries[len(g.entries)-1].Value, true
}

// Min returns the smallest observation, ok=false when empty.
func (g *GK) Min() (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.minLocked()
}

func (g *GK) minLocked() (float64, bool) {
	g.flush()
	if g.n == 0 {
		return 0, false
	}
	return g.entries[0].Value, true
}

// Max returns the largest observation, ok=false when empty.
func (g *GK) Max() (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxLocked()
}

func (g *GK) maxLocked() (float64, bool) {
	g.flush()
	if g.n == 0 {
		return 0, false
	}
	return g.entries[len(g.entries)-1].Value, true
}

// RankOf returns the approximate number of observations strictly less than v.
func (g *GK) RankOf(v float64) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flush()
	var rank int64
	for _, e := range g.entries {
		if e.Value >= v {
			break
		}
		rank += e.G
	}
	return rank
}

// Merge folds other into g. The merged summary is compressed under g's ε;
// standard GK merging may up to double the effective error, which is
// acceptable for the planner's bucket estimates. An empty g adopts its
// snapshot of other; otherwise the two summaries interleave into g's spare
// storage, grown only when it is short.
func (g *GK) Merge(other *GK) {
	if other == nil {
		return
	}
	// Snapshot other under its own lock first, then fold in under g's lock,
	// so the two locks are never held together (no ordering hazard).
	other.mu.Lock()
	other.flush()
	otherEntries := append([]gkEntry(nil), other.entries...)
	otherN := other.n
	other.mu.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flush()
	if otherN == 0 {
		return
	}
	mine := g.entries
	if len(mine) == 0 {
		// Nothing to interleave: the snapshot becomes the summary.
		g.entries = otherEntries
	} else {
		merged := g.spare[:0]
		if need := len(mine) + len(otherEntries); cap(merged) < need {
			merged = make([]gkEntry, 0, need)
		}
		i, j := 0, 0
		for i < len(mine) && j < len(otherEntries) {
			if mine[i].Value <= otherEntries[j].Value {
				merged = append(merged, mine[i])
				i++
			} else {
				merged = append(merged, otherEntries[j])
				j++
			}
		}
		merged = append(merged, mine[i:]...)
		merged = append(merged, otherEntries[j:]...)
		g.entries, g.spare = merged, mine[:0]
	}
	g.n += otherN
	g.compress()
}

// Bucket is one equi-height histogram bucket: observations in (Lo, Hi] (the
// first bucket includes Lo), approximately Count of them.
type Bucket struct {
	Lo, Hi float64
	Count  int64
}

// Histogram extracts an equi-height histogram with the requested number of
// buckets, following the paper's use of GK quantiles as right borders of
// equi-height buckets. Fewer buckets are returned when the data has fewer
// distinct quantile points.
func (g *GK) Histogram(buckets int) []Bucket {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flush()
	if g.n == 0 || buckets <= 0 {
		return nil
	}
	lo, _ := g.minLocked()
	per := float64(g.n) / float64(buckets)
	out := make([]Bucket, 0, buckets)
	prev := lo
	for b := 1; b <= buckets; b++ {
		q, _ := g.quantileLocked(float64(b) / float64(buckets))
		if len(out) > 0 && q == out[len(out)-1].Hi {
			out[len(out)-1].Count += int64(per)
			continue
		}
		out = append(out, Bucket{Lo: prev, Hi: q, Count: int64(per)})
		prev = q
	}
	return out
}

// EstimateRange estimates how many observations fall in [lo, hi] using
// linear interpolation within histogram-equivalent rank positions.
func (g *GK) EstimateRange(lo, hi float64) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flush()
	if g.n == 0 || hi < lo {
		return 0
	}
	rlo := g.rankInterp(lo)
	rhi := g.rankInterp(math.Nextafter(hi, math.Inf(1)))
	est := rhi - rlo
	if est < 0 {
		est = 0
	}
	if est > float64(g.n) {
		est = float64(g.n)
	}
	return int64(est)
}

// EstimateEquals estimates how many observations equal v.
func (g *GK) EstimateEquals(v float64) int64 {
	return g.EstimateRange(v, v)
}

// rankInterp returns the interpolated fractional rank of v (observations < v).
// The caller must hold g.mu.
func (g *GK) rankInterp(v float64) float64 {
	if g.n == 0 {
		return 0
	}
	mn, _ := g.minLocked()
	mx, _ := g.maxLocked()
	if v <= mn {
		return 0
	}
	if v > mx {
		return float64(g.n)
	}
	var rank int64
	for i, e := range g.entries {
		if e.Value >= v {
			// Interpolate between the previous entry and this one.
			if i == 0 {
				return 0
			}
			prev := g.entries[i-1]
			span := e.Value - prev.Value
			if span <= 0 {
				return float64(rank)
			}
			frac := (v - prev.Value) / span
			return float64(rank) + frac*float64(e.G)
		}
		rank += e.G
	}
	return float64(g.n)
}

// String summarizes the sketch for debugging.
func (g *GK) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flush()
	var b strings.Builder
	fmt.Fprintf(&b, "GK(eps=%g, n=%d, entries=%d)", g.eps, g.n, len(g.entries))
	return b.String()
}
