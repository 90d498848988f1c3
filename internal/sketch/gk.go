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
	"slices"
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

// Insert adds one observation to the sketch.
//
//dynopt:hotpath
func (g *GK) Insert(v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf = append(g.buf, v)
	if len(g.buf) >= g.bufCap {
		g.flush()
	}
}

// flush merges buffered observations into the summary in one sorted pass,
// then compresses. The merge writes into the storage of the summary before
// last and the two swap, so a sketch in steady state flushes without
// allocating. The caller must hold g.mu.
func (g *GK) flush() {
	if len(g.buf) == 0 {
		return
	}
	sort.Float64s(g.buf)
	merged := slices.Grow(g.spare[:0], len(g.entries)+len(g.buf))
	bi, ei := 0, 0
	for bi < len(g.buf) || ei < len(g.entries) {
		if ei >= len(g.entries) || (bi < len(g.buf) && g.buf[bi] < g.entries[ei].Value) {
			v := g.buf[bi]
			var delta int64
			// A new observation inserted in the interior carries
			// delta = floor(2·ε·n); at the extremes delta = 0.
			if len(merged) > 0 && (ei < len(g.entries) || bi < len(g.buf)-1) {
				delta = int64(2 * g.eps * float64(g.n))
			}
			merged = append(merged, gkEntry{Value: v, G: 1, Delta: delta})
			g.n++
			bi++
		} else {
			merged = append(merged, g.entries[ei])
			ei++
		}
	}
	g.entries, g.spare = merged, g.entries[:0]
	g.buf = g.buf[:0]
	g.compress()
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
// acceptable for the planner's bucket estimates.
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
