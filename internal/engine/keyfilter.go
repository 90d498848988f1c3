package engine

import (
	"math"
	"math/bits"
	"slices"

	"dynopt/internal/types"
)

// keyFilter is a join filter built from a build side that has already landed:
// once the engine holds the exact key set, a probe row whose key the build
// side never saw is dropped before it is hashed, routed or looked up.
//
// It covers one join key — the first whose build values are all ints (a
// build NULL disqualifies its column: NULL joins NULL) — with the column's
// min and max and a bit array of 8 bits per build row, one bit set per row at
// (uint64(x)·0x9E3779B97F4A7C15) >> shift. The filter may pass a row that
// cannot match; it never drops one that can:
//
//   - a probe int passes when it lies in [lo, hi] and its bit is set;
//   - a NULL is dropped: Compare(NULL, int) is never 0;
//   - any other kind passes: a float equal to an int matches it under
//     Value.Equal, and other kinds are too rare in a join key to tell apart.
//
// The filter is read-only once built and shared by every partition's worker;
// each worker owns its own mark scratch.
type keyFilter struct {
	key    int // the covered column's position in the join's key list
	lo, hi int64
	bits   []uint64
	shift  uint
}

const keyFilterMul = 0x9E3779B97F4A7C15

// newKeyFilter builds the filter over every row of parts (build rows at
// schema width, keyCols their join-key offsets). It returns nil — the join
// runs unfiltered — for an empty build side or one with no all-int key
// column.
func newKeyFilter(parts [][]types.Tuple, keyCols []int) *keyFilter {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	key := -1
	for i, col := range keyCols {
		if allInts(parts, col) {
			key = i
			break
		}
	}
	if key < 0 {
		return nil
	}
	slots := max(64, 1<<bits.Len(uint(8*n-1)))
	f := &keyFilter{
		key:   key,
		lo:    math.MaxInt64,
		hi:    math.MinInt64,
		bits:  make([]uint64, slots/64),
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
	}
	col := keyCols[key]
	for _, p := range parts {
		for _, t := range p {
			x := t[col].I()
			f.lo, f.hi = min(f.lo, x), max(f.hi, x)
			h := (uint64(x) * keyFilterMul) >> f.shift
			f.bits[h>>6] |= 1 << (h & 63)
		}
	}
	return f
}

// allInts reports whether column col holds an int in every row of parts.
func allInts(parts [][]types.Tuple, col int) bool {
	for _, p := range parts {
		for _, t := range p {
			if t[col].K != types.KindInt {
				return false
			}
		}
	}
	return true
}

// has reports whether int key x can be in the build side.
func (f *keyFilter) has(x int64) bool {
	if x < f.lo || x > f.hi {
		return false
	}
	h := (uint64(x) * keyFilterMul) >> f.shift
	return f.bits[h>>6]&(1<<(h&63)) != 0
}

// passes applies the soundness rule to one probe key value.
func (f *keyFilter) passes(v types.Value) bool {
	switch v.K {
	case types.KindInt:
		return f.has(v.I())
	case types.KindNull:
		return false
	default:
		return true
	}
}

// mark sets keep[k] for each live row k of c whose covered key, at row
// offset col (already mapped through c.Proj), can match, reusing keep's
// storage. An int key column is read from its typed vector when the chunk has
// one, else the row values are.
//
//dynopt:hotpath
func (f *keyFilter) mark(c *Chunk, col int, keep []bool) []bool {
	n := c.Live()
	keep = slices.Grow(keep[:0], n)[:n]
	if c.Cols != nil {
		if v := c.Cols.Col(col); v != nil && !v.Mixed && v.Kind == types.KindInt {
			ints, nulls := v.Ints, v.Null
			if c.Sel == nil {
				for r := range keep {
					keep[r] = !nulls[r] && f.has(ints[r])
				}
			} else {
				for k, r := range c.Sel {
					keep[k] = !nulls[r] && f.has(ints[r])
				}
			}
			return keep
		}
	}
	if c.Sel == nil {
		for r := range keep {
			keep[r] = f.passes(c.Rows[r][col])
		}
	} else {
		for k, r := range c.Sel {
			keep[k] = f.passes(c.Rows[r][col])
		}
	}
	return keep
}

// probeCol returns the covered key's offset into c's rows, for probe key
// columns pCols (schema offsets).
func (f *keyFilter) probeCol(c *Chunk, pCols []int) int {
	if c.Proj != nil {
		return c.Proj[pCols[f.key]]
	}
	return pCols[f.key]
}
