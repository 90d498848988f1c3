package types

import "math"

// This file is the column-major face of the tuple spine: typed column
// vectors gathered out of row windows, a per-window gather cache, and the
// columnar form of the composite-key prehash. Vectors exist so the streaming
// pipeline's inner loops — predicate kernels and join-key hashing — run over
// dense typed slices instead of 32-byte tagged unions, while the row form
// stays authoritative: a ColVec is always derived from rows, never the other
// way around, so every row-at-a-time operator keeps working unmodified.

// ColVec is one column of a row window in columnar form: exactly one typed
// payload slice (selected by Kind) plus a validity slice, both aligned with
// the window's rows. Mixed marks a gather that found a non-null value of a
// kind other than the schema's — the payload slices are then invalid and
// consumers must fall back to the row form.
type ColVec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	// Null[r] reports row r's value as NULL; the payload slot is zeroed.
	Null  []bool
	Mixed bool
}

// Gather fills v from column col of rows, decoding into the typed payload
// for want (the schema kind). Buffers are reused across calls when capacity
// suffices. Kinds other than int/float/string have no vectorized consumers
// and gather as Mixed immediately.
func (v *ColVec) Gather(rows []Tuple, col int, want Kind) {
	n := len(rows)
	v.Kind = want
	v.Mixed = false
	if cap(v.Null) < n {
		v.Null = make([]bool, n)
	}
	v.Null = v.Null[:n]
	// The loops read each value through a pointer (a Value is a multi-word
	// tagged union; copying it per row costs more than the decode) and write
	// through slice locals: stores through v.Ints[r]/v.Null[r] would force
	// the compiler to reload the slice headers from *v every iteration, which
	// measures ~3x slower than keeping them in registers.
	nulls := v.Null
	switch want {
	case KindInt:
		if cap(v.Ints) < n {
			v.Ints = make([]int64, n)
		}
		v.Ints = v.Ints[:n]
		ints := v.Ints
		//dynopt:hotpath
		for r := range rows {
			val := &rows[r][col]
			switch val.K {
			case KindInt:
				nulls[r], ints[r] = false, int64(val.num)
			case KindNull:
				nulls[r], ints[r] = true, 0
			default:
				v.Mixed = true
				return
			}
		}
	case KindFloat:
		if cap(v.Floats) < n {
			v.Floats = make([]float64, n)
		}
		v.Floats = v.Floats[:n]
		floats := v.Floats
		//dynopt:hotpath
		for r := range rows {
			val := &rows[r][col]
			switch val.K {
			case KindFloat:
				nulls[r], floats[r] = false, math.Float64frombits(val.num)
			case KindNull:
				nulls[r], floats[r] = true, 0
			default:
				v.Mixed = true
				return
			}
		}
	case KindString:
		if cap(v.Strs) < n {
			v.Strs = make([]string, n)
		}
		v.Strs = v.Strs[:n]
		strs := v.Strs
		//dynopt:hotpath
		for r := range rows {
			val := &rows[r][col]
			switch val.K {
			case KindString:
				nulls[r], strs[r] = false, val.S
			case KindNull:
				nulls[r], strs[r] = true, ""
			default:
				v.Mixed = true
				return
			}
		}
	default:
		v.Mixed = true
	}
}

// Window returns rows [lo, hi) of a cleanly gathered vector as a vector over
// the same backing arrays — how a column gathered once for a whole partition
// serves each scan window without a copy. Views are read-only, and clamped
// to the window so a Gather into one reallocates instead of overwriting v.
func (v *ColVec) Window(lo, hi int) ColVec {
	w := ColVec{Kind: v.Kind, Null: v.Null[lo:hi:hi]}
	switch v.Kind {
	case KindInt:
		w.Ints = v.Ints[lo:hi:hi]
	case KindFloat:
		w.Floats = v.Floats[lo:hi:hi]
	case KindString:
		w.Strs = v.Strs[lo:hi:hi]
	}
	return w
}

// ColSource provides columnar access to the current row window. Col returns
// the vector for schema column offset i, valid until the window advances;
// a Mixed result (or nil source) means the consumer must use the row form.
type ColSource interface {
	Col(i int) *ColVec
}

// ColCache is a lazy per-window gather cache: each column is decoded at most
// once per window, on first request, into buffers reused across windows.
// Producers call SetWindow as they advance; consumers (predicate kernels,
// the columnar prehash) call Col for just the columns they touch, so a
// window whose columns nobody asks for costs nothing.
type ColCache struct {
	schema *Schema
	rows   []Tuple
	vecs   []ColVec
	gen    []uint64 // window generation each column was gathered at
	cur    uint64
}

// NewColCache builds a cache for windows of the given schema.
func NewColCache(schema *Schema) *ColCache {
	return &ColCache{
		schema: schema,
		vecs:   make([]ColVec, schema.Len()),
		gen:    make([]uint64, schema.Len()),
	}
}

// SetWindow advances the cache to a new row window, invalidating every
// cached vector without touching their buffers.
func (c *ColCache) SetWindow(rows []Tuple) {
	c.rows = rows
	c.cur++
}

// Col implements ColSource: the vector for column i of the current window,
// gathered on first request per window.
func (c *ColCache) Col(i int) *ColVec {
	v := &c.vecs[i]
	if c.gen[i] != c.cur {
		v.Gather(c.rows, i, c.schema.Fields[i].Kind)
		c.gen[i] = c.cur
	}
	return v
}

// tagSeed is the FNV-1a state after folding a kind tag byte — the common
// prefix of Value.Hash for each kind. Computed through a function because
// the product wraps uint64, which Go's exact constant arithmetic rejects.
func tagSeed(tag uint64) uint64 {
	h := fnvOffset64
	return (h ^ tag) * fnvPrime64
}

// Per-kind hash states after the tag fold, precomputed once (Value.Hash
// folds them per call; the columnar hash reuses them per column).
var (
	hashNullState  = tagSeed(0)
	hashIntState   = tagSeed(1)
	hashFloatState = tagSeed(2)
	hashStrState   = tagSeed(3)
)

// hashIntPayload folds an int64 payload exactly like Value.Hash's KindInt
// arm (and the integral-float arm, which reuses the int encoding).
func hashIntPayload(v uint64) uint64 {
	return hashUint64(hashIntState, v)
}

// hashFloatPayload hashes a float payload exactly like Value.Hash's
// KindFloat arm: integral values reroute through the int encoding so 3 and
// 3.0 hash identically.
func hashFloatPayload(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return hashIntPayload(uint64(int64(f)))
	}
	return hashUint64(hashFloatState, math.Float64bits(f))
}

// The per-kind column folds: each mixes one gathered column into the running
// composite-key states in dst, kind dispatch hoisted out of the row loop.
// dst is indexed by live-row position; at returns the window row for a live
// position (identity when sel is nil).

func foldIntCol(dst []uint64, xs []int64, nulls []bool, sel []int32) {
	if sel == nil {
		//dynopt:hotpath
		for r, h := range dst {
			hv := hashNullState
			if !nulls[r] {
				hv = hashUint64(hashIntState, uint64(xs[r]))
			}
			dst[r] = (h ^ hv) * fnvPrime64
		}
		return
	}
	//dynopt:hotpath
	for k, r := range sel {
		hv := hashNullState
		if !nulls[r] {
			hv = hashUint64(hashIntState, uint64(xs[r]))
		}
		dst[k] = (dst[k] ^ hv) * fnvPrime64
	}
}

func foldFloatCol(dst []uint64, xs []float64, nulls []bool, sel []int32) {
	if sel == nil {
		//dynopt:hotpath
		for r, h := range dst {
			hv := hashNullState
			if !nulls[r] {
				hv = hashFloatPayload(xs[r])
			}
			dst[r] = (h ^ hv) * fnvPrime64
		}
		return
	}
	//dynopt:hotpath
	for k, r := range sel {
		hv := hashNullState
		if !nulls[r] {
			hv = hashFloatPayload(xs[r])
		}
		dst[k] = (dst[k] ^ hv) * fnvPrime64
	}
}

func hashStrPayload(s string) uint64 {
	h := hashStrState
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func foldStrCol(dst []uint64, xs []string, nulls []bool, sel []int32) {
	if sel == nil {
		//dynopt:hotpath
		for r, h := range dst {
			hv := hashNullState
			if !nulls[r] {
				hv = hashStrPayload(xs[r])
			}
			dst[r] = (h ^ hv) * fnvPrime64
		}
		return
	}
	//dynopt:hotpath
	for k, r := range sel {
		hv := hashNullState
		if !nulls[r] {
			hv = hashStrPayload(xs[r])
		}
		dst[k] = (dst[k] ^ hv) * fnvPrime64
	}
}

// HashColsInto is the columnar form of HashKeysInto: it computes the
// composite join-key prehash — bit-identical to Tuple.HashKeys — from
// gathered key column vectors, one column at a time instead of one row at a
// time, with kind dispatch paid once per column rather than once per value.
// sel selects the live rows (nil means all n); the output is aligned with
// the live rows, matching the chunk sidecar contract. dst is reused when its
// capacity suffices. Callers must not pass Mixed vectors — they fall back to
// the row-form hash instead.
func HashColsInto(cols []*ColVec, sel []int32, n int, dst []uint64) []uint64 {
	if sel != nil {
		n = len(sel)
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
	}
	for k := range dst {
		dst[k] = hashKeysOffset
	}
	for _, v := range cols {
		switch v.Kind {
		case KindInt:
			foldIntCol(dst, v.Ints, v.Null, sel)
		case KindFloat:
			foldFloatCol(dst, v.Floats, v.Null, sel)
		default: // KindString; other kinds gather as Mixed and never get here
			foldStrCol(dst, v.Strs, v.Null, sel)
		}
	}
	return dst
}
