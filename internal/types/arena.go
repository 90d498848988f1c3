package types

// Arena chunks are sized from what the arena already holds: a new chunk is
// an eighth of the capacity allocated so far, clamped to
// [arenaMinChunk, arenaMaxChunk]. The unused tail of the last chunk — the
// only space an arena wastes — is therefore at most an eighth of its
// contents (a few KB for a selective scan keeping a handful of rows), while
// large outputs still reach chunks big enough to amortize one allocation
// over thousands of tuples. Doubling wasted up to half: a partition's output
// that just spilled into a fresh chunk left that chunk, as large as
// everything before it, nearly empty, and a query builds a hundred such
// arenas.
const (
	arenaMinChunk  = 256
	arenaMaxChunk  = 16384
	arenaSlackFrac = 8
)

// Arena carves Tuples out of large shared chunks so hot loops (join output
// building, projection) stop paying one heap allocation per row. Tuples
// returned by an Arena are full-sliced ([lo:hi:hi]) so appends to them can
// never clobber a neighbor, and they stay valid for the life of the chunk
// they came from — the arena never reuses or frees space unless its owner
// calls Reset, it only moves on to a fresh chunk when the current one is
// full.
//
// An Arena is not safe for concurrent use; operators keep one per partition
// goroutine.
type Arena struct {
	chunk []Value
	held  int // capacity of every chunk allocated so far
}

// alloc returns a capacity-clamped slice of n fresh Value slots.
func (a *Arena) alloc(n int) []Value {
	if cap(a.chunk)-len(a.chunk) < n {
		c := min(max(a.held/arenaSlackFrac, arenaMinChunk), arenaMaxChunk)
		if n > c {
			c = n
		}
		a.held += c
		a.chunk = make([]Value, 0, c)
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+n]
	return a.chunk[lo : lo+n : lo+n]
}

// Reserve ensures capacity for n more Values in the current chunk, so a
// caller that knows its output size up front (e.g. a join that precounted
// matches) gets exactly one chunk with no slack chunks in between.
func (a *Arena) Reserve(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.held += n
		a.chunk = make([]Value, 0, n)
	}
}

// Reset starts carving again from the front of the current chunk, so a
// caller whose tuples die together — a read-back chunk's rows, dead once the
// next chunk is read — reuses one slab instead of allocating per batch. Every
// tuple carved from that chunk before is overwritten by what is carved
// after: only a caller that holds none of them may Reset. Slots are not
// cleared; a stale value stays reachable until it is overwritten.
func (a *Arena) Reset() {
	a.chunk = a.chunk[:0]
}

// Concat returns l⧺r carved from the arena — the allocation-free equivalent
// of Tuple.Concat for join output rows.
func (a *Arena) Concat(l, r Tuple) Tuple {
	out := a.alloc(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// Gather returns the columns of t listed in cols, in that order, carved from
// the arena — a stored row narrowed to its projected width. It is the one
// copy a projection costs, paid where a row is kept rather than where it is
// scanned.
//
//dynopt:hotpath
func (a *Arena) Gather(t Tuple, cols []int) Tuple {
	out := a.alloc(len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// ConcatCols is Concat over column maps: a nil map takes that side whole, a
// non-nil one takes the listed columns in order. A join builds its output
// row in one step from a build row and a stored probe row still at full
// width, instead of narrowing the probe row first and concatenating after.
//
//dynopt:hotpath
func (a *Arena) ConcatCols(l Tuple, lCols []int, r Tuple, rCols []int) Tuple {
	nl, nr := len(l), len(r)
	if lCols != nil {
		nl = len(lCols)
	}
	if rCols != nil {
		nr = len(rCols)
	}
	out := a.alloc(nl + nr)
	if lCols == nil {
		copy(out, l)
	} else {
		for i, c := range lCols {
			out[i] = l[c]
		}
	}
	if rCols == nil {
		copy(out[nl:], r)
	} else {
		ro := out[nl:]
		for i, c := range rCols {
			ro[i] = r[c]
		}
	}
	return out
}

// Make returns an uninitialized tuple of width n carved from the arena, for
// projection-style operators that fill columns one by one.
func (a *Arena) Make(n int) Tuple {
	return Tuple(a.alloc(n))
}
