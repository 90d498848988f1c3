package engine

import (
	"fmt"
	"io"
	"math"
	"slices"

	"dynopt/internal/cluster"
	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// maxPartRows caps one partition at 2^31-1 rows: the flat build table, the
// exchange scatter, and the index-range bookkeeping store row positions as
// int32 to halve their footprint. That is far beyond in-memory scale, but
// the limit is enforced with errors rather than silently wrapping into
// corrupted row indexes.
const maxPartRows = math.MaxInt32

func checkPartRows(parts [][]types.Tuple) error {
	for _, p := range parts {
		if len(p) > maxPartRows {
			return fmt.Errorf("engine: partition has %d rows, exceeding the %d-row limit of int32 row indexing", len(p), maxPartRows)
		}
	}
	return nil
}

// partSizes indexes an optional per-partition size table (nil when the
// exchange was skipped or sizes were not requested).
func partSizes(sizes [][]int64, p int) []int64 {
	if sizes == nil {
		return nil
	}
	return sizes[p]
}

// prehashParts bulk-hashes the key columns of every partition in parallel —
// the one hash pass each relation side pays per join.
func prehashParts(parts [][]types.Tuple, keyCols []int) [][]uint64 {
	out := make([][]uint64, len(parts))
	_ = forEachPart(len(parts), func(p int) error {
		out[p] = types.HashKeysInto(parts[p], keyCols, nil)
		return nil
	})
	return out
}

// exchangeBlock is a run of one source partition's rows between the
// exchange's two passes — a landed partition whole, or one chunk off a
// cursor — at schema width, with their key hashes and destinations.
type exchangeBlock struct {
	rows   []types.Tuple
	hashes []uint64
	dsts   []int32 // per-row destination (hash mod n, computed once)
	sizes  []int64 // per-row encoded sizes (wantSizes only)
}

// exchange lands a source hash-partitioned on the key columns — the build
// side of a hash join, and every other whole-relation exchange — metering
// each row that changes partition as network shuffle. A source already
// partitioned on the keys, or of one partition, lands where it is (the §3
// optimization for pre-partitioned inputs).
//
// Alongside the relation it returns the key hashes aligned with each output
// partition's rows: every row is hashed exactly once here and the prehashes
// travel with the rows, so the downstream build and probe never rehash. With
// wantSizes (the real-spill join's build side) the per-row encoded sizes pass
// one computes anyway travel the same way, so the spill path's budget
// accounting never re-walks EncodedSize; sizes are nil when the exchange was
// skipped.
//
// Two partition-parallel passes. Pass one reads each source partition — in
// place when it already landed, else through its cursor, so a scan's decode,
// filter and narrowing fuse into the exchange and nothing but the exchanged
// relation is held — hashes every row once, counts per-destination occupancy
// and sizes the rows: one walk per row covers the shuffle metering, the output
// partitions' size cache and the per-row sizes, and a chunk whose rows all
// weigh the same (Chunk.RowBytes) is not walked at all. Pass two scatters rows
// and prehashes straight into exactly-sized destination arrays at precomputed
// offsets — no append regrowth, no intermediate copy. Each destination
// receives source blocks in source order with source row order preserved.
func exchange(ctx *Context, src Source, keyCols []int, wantSizes bool) (*Relation, [][]uint64, [][]int64, error) {
	n := src.Parts()
	if colsMatch(src.PartCols(), keyCols) || n == 1 {
		rel, err := materializeSource(ctx, src)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := checkPartRows(rel.Parts); err != nil {
			return nil, nil, nil, err
		}
		return rel, prehashParts(rel.Parts, keyCols), nil, nil
	}
	rel := landed(src)
	if rel != nil {
		if err := checkPartRows(rel.Parts); err != nil {
			return nil, nil, nil, err
		}
	}
	acct := ctx.Accounting()
	blocks := make([][]exchangeBlock, n) // [src]
	counts := make([][]int32, n)         // [src] dst -> rows routed there
	bytes := make([][]int64, n)          // [src] dst -> encoded bytes routed there
	err := forEachPart(n, func(s int) error {
		count, size := make([]int32, n), make([]int64, n)
		var rows, total int64
		// route assigns a block's rows their destinations; rowBytes > 0 is
		// what each of them weighs.
		route := func(b exchangeBlock, rowBytes int64) {
			b.dsts = make([]int32, len(b.rows))
			if wantSizes {
				b.sizes = make([]int64, len(b.rows))
			}
			var blockBytes int64
			//dynopt:hotpath
			for r, t := range b.rows {
				dst := int32(b.hashes[r] % uint64(n))
				sz := rowBytes
				if sz == 0 {
					sz = int64(t.EncodedSize()) //dynopt:size-ok this is the cache-seeding walk: exchanged partitions' sizes are born here
				}
				b.dsts[r] = dst
				count[dst]++
				size[dst] += sz
				blockBytes += sz
				if wantSizes {
					b.sizes[r] = sz
				}
			}
			total += blockBytes
			rows += int64(len(b.rows))
			blocks[s] = append(blocks[s], b)
		}
		if rel != nil {
			route(exchangeBlock{rows: rel.Parts[s], hashes: types.HashKeysInto(rel.Parts[s], keyCols, nil)}, 0)
		} else {
			cur, err := src.Open(s)
			if err != nil {
				return err
			}
			keys := keyHasher{keyCols: keyCols}
			var arena types.Arena
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				c, err := cur.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				// Hash in place, then narrow: the destinations keep these rows
				// under a hash table, so this is where a projected row is built.
				// Each chunk is held at its exact size — no staging slice to
				// regrow.
				hashes := slices.Clone(keys.hash(c))
				route(exchangeBlock{rows: c.appendLive(make([]types.Tuple, 0, c.Live()), &arena), hashes: hashes}, c.RowBytes)
			}
		}
		counts[s], bytes[s] = count, size
		acct.ShuffleRows.Add(rows - int64(count[s]))
		acct.ShuffleBytes.Add(total - size[s])
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	out := &Relation{
		Schema:   src.Schema(),
		Parts:    make([][]types.Tuple, n),
		PartCols: slices.Clone(keyCols),
	}
	// starts[s][dst]: where source s's block begins within destination dst.
	starts := make([][]int32, n)
	for s := range starts {
		starts[s] = make([]int32, n)
	}
	outHashes := make([][]uint64, n)
	var outSizes [][]int64
	if wantSizes {
		outSizes = make([][]int64, n)
	}
	outBytes := make([]int64, n)
	var outTotal int64
	for dst := 0; dst < n; dst++ {
		var total int
		for s := 0; s < n; s++ {
			starts[s][dst] = int32(total)
			total += int(counts[s][dst])
			outBytes[dst] += bytes[s][dst]
		}
		if total > maxPartRows {
			return nil, nil, nil, fmt.Errorf("engine: exchange destination %d would hold %d rows, exceeding the %d-row limit of int32 row indexing", dst, total, maxPartRows)
		}
		out.Parts[dst] = make([]types.Tuple, total)
		outHashes[dst] = make([]uint64, total)
		if wantSizes {
			outSizes[dst] = make([]int64, total)
		}
		outTotal += outBytes[dst]
	}
	_ = forEachPart(n, func(s int) error {
		next := starts[s] // disjoint write ranges per source; safe to share dst arrays
		for _, b := range blocks[s] {
			//dynopt:hotpath
			for r, t := range b.rows {
				dst := b.dsts[r]
				i := next[dst]
				next[dst]++
				out.Parts[dst][i] = t
				outHashes[dst][i] = b.hashes[r]
				if wantSizes {
					outSizes[dst][i] = b.sizes[r]
				}
			}
		}
		return nil
	})
	out.seedSizes(outBytes, outTotal)
	return out, outHashes, outSizes, nil
}

// Repartition hash-exchanges a relation onto the named key columns. It is
// the exported face of the exchange for benchmarks and tools; joins call the
// internal path, which additionally hands the per-row prehashes downstream.
func Repartition(ctx *Context, rel *Relation, keys []string) (*Relation, error) {
	cols, err := resolveKeys(rel.Schema, keys)
	if err != nil {
		return nil, err
	}
	if rel.PartitionedOn(cols) {
		// Already placed: skip the internal path so the no-op exchange does
		// not pay its prehash pass (callers here have no use for hashes).
		return rel, nil
	}
	out, _, _, err := exchange(ctx, SourceOf(ctx, rel), cols, false)
	return out, err
}

// simSpills reports whether the simulated spill model charges a build side of
// buildBytes: no real spilling (SpillBudget is 0), a positive per-node memory
// budget, and a build side over it. Probe rows are sized only when it does.
func simSpills(ctx *Context, buildBytes int64) bool {
	budget := ctx.Cluster.MemoryPerNodeBytes()
	return ctx.SpillBudget() == 0 && budget > 0 && buildBytes > budget
}

// meterSpill models §3's overflow partitions when nothing really spills:
// when a partition's build side exceeds the per-node memory budget, the
// excess build bytes and the matching fraction of probe bytes take a
// write+read round trip through disk (the grace hash join's recursive passes
// are approximated by one). All byte figures come from the callers'
// SizeCache-backed PartBytes/ByteSize — never from a fresh EncodedSize walk.
// Under a SpillBudget the dynamic hybrid hash join in spilljoin.go meters
// actual run-file I/O instead and this model charges nothing.
func meterSpill(ctx *Context, buildBytes, probeBytes, buildRows, probeRows int64) {
	if !simSpills(ctx, buildBytes) {
		return
	}
	budget := ctx.Cluster.MemoryPerNodeBytes()
	spillFrac := float64(buildBytes-budget) / float64(buildBytes)
	spilledBuild := buildBytes - budget
	spilledProbe := int64(float64(probeBytes) * spillFrac)
	acct := ctx.Accounting()
	acct.SpillBytes.Add(2 * (spilledBuild + spilledProbe)) // write + read back
	acct.SpillRows.Add(int64(float64(buildRows+probeRows) * spillFrac))
}

// hashTable is a per-partition build table over prehashed rows: a
// power-of-two bucket array of prefix offsets into one flat []int32 of row
// indices, built in two passes (count occupancy, then fill). No chain slices
// and no map growth — the whole table is three flat allocations regardless
// of key distribution. Probes compare the stored 64-bit prehash first and
// verify exact keys only on a full-hash match.
type hashTable struct {
	rows    []types.Tuple // build rows, referenced by index
	hashes  []uint64      // prehashed composite keys aligned with rows
	keyCols []int
	mask    uint64
	starts  []int32 // len nbuckets+1: bucket -> prefix offset into idx
	idx     []int32 // row indices grouped by bucket, row order within bucket
}

func buildTable(rows []types.Tuple, hashes []uint64, keyCols []int) *hashTable {
	nb := 1
	for nb < len(rows) {
		nb <<= 1
	}
	ht := &hashTable{
		rows: rows, hashes: hashes, keyCols: keyCols,
		mask:   uint64(nb - 1),
		starts: make([]int32, nb+1),
		idx:    make([]int32, len(rows)),
	}
	for _, h := range hashes {
		ht.starts[(h&ht.mask)+1]++
	}
	for b := 0; b < nb; b++ {
		ht.starts[b+1] += ht.starts[b]
	}
	next := make([]int32, nb)
	copy(next, ht.starts[:nb])
	for r, h := range hashes {
		b := h & ht.mask
		ht.idx[next[b]] = int32(r)
		next[b]++
	}
	return ht
}

// joinInto streams probe rows through the table, appending one build⧺probe
// (or probe⧺build, per buildFirst) arena tuple per match to out and
// returning it. The probe side is read where it lies: with sel, probe row k
// is probeRows[sel[k]] (the filter that produced the selection never copied
// a tuple header); with proj, probeRows are stored rows still at full width
// and a match writes build row and projected probe columns into the output
// tuple in one step, so a probe row that matches nothing is never copied at
// all. probeCols are offsets into probeRows as passed (already mapped
// through proj by the caller). hashes align with the live rows; the caller
// (probeState.consume) took them off the chunk — the scatter's, a run's —
// or computed them for the filter's survivors of a chunk that arrived
// unhashed. Rows are never hashed here. Matches sharing a full hash are
// emitted in build row order. Match
// semantics and output order are identical to flattening and narrowing the
// probe rows first. The flat loop — no per-row closure — is the join's
// innermost hot path.
//
//dynopt:hotpath
func (ht *hashTable) joinInto(out []types.Tuple, arena *types.Arena, probeRows []types.Tuple, sel []int32, proj []int, hashes []uint64, probeCols []int, buildFirst bool) []types.Tuple {
	starts, idx, hs, bRows, mask := ht.starts, ht.idx, ht.hashes, ht.rows, ht.mask
	singleKey := len(probeCols) == 1 && len(ht.keyCols) == 1
	var bCol0, pCol0 int
	if singleKey {
		bCol0, pCol0 = ht.keyCols[0], probeCols[0]
	}
	for k, h := range hashes {
		b := h & mask
		for _, ri := range idx[starts[b]:starts[b+1]] {
			if hs[ri] != h {
				continue
			}
			// Only a full-hash match touches the probe row, or even its
			// header: a row that matches nothing is never loaded.
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			pt := probeRows[r]
			bt := bRows[ri]
			if singleKey {
				if !bt[bCol0].Equal(pt[pCol0]) {
					continue
				}
			} else if !bt.KeysEqual(ht.keyCols, pt, probeCols) {
				continue
			}
			if buildFirst {
				out = append(out, arena.ConcatCols(bt, nil, pt, proj))
			} else {
				out = append(out, arena.ConcatCols(pt, proj, bt, nil))
			}
		}
	}
	return out
}

// HashJoin is the repartitioning dynamic hash join of §3 over two relations
// that already landed: both inputs are hash-exchanged on the join keys
// (skipped for pre-partitioned inputs), then each partition builds a table
// over the build side and streams the probe side through it. Output tuples
// are left⧺right regardless of build side; the output stays partitioned on
// the join keys. It is HashJoinStream over the probe relation's windows,
// collected.
func HashJoin(ctx *Context, left, right *Relation, leftKeys, rightKeys []string, buildLeft bool) (*Relation, error) {
	build, probe, buildKeys, probeKeys := left, right, leftKeys, rightKeys
	if !buildLeft {
		build, probe, buildKeys, probeKeys = right, left, rightKeys, leftKeys
	}
	return collectJoin(len(probe.Parts), func(mk SinkFactory) error {
		return HashJoinStream(ctx, SourceOf(ctx, build), SourceOf(ctx, probe), buildKeys, probeKeys, buildLeft, mk)
	})
}

// BroadcastJoin replicates the (small) build side to every partition of the
// probe side — metering (n-1)× its bytes as broadcast traffic — then joins
// locally with no movement of the probe side (§3). buildLeft selects which
// input is replicated; output tuples remain left⧺right and inherit the probe
// side's partitioning. It is BroadcastJoinStream over the probe relation's
// windows, collected.
func BroadcastJoin(ctx *Context, left, right *Relation, leftKeys, rightKeys []string, buildLeft bool) (*Relation, error) {
	build, probe, buildKeys, probeKeys := left, right, leftKeys, rightKeys
	if !buildLeft {
		build, probe, buildKeys, probeKeys = right, left, rightKeys, leftKeys
	}
	return collectJoin(len(probe.Parts), func(mk SinkFactory) error {
		return BroadcastJoinStream(ctx, SourceOf(ctx, build), SourceOf(ctx, probe), buildKeys, probeKeys, buildLeft, mk)
	})
}

// IndexNLJoin is the indexed nested-loop join of §3: the (small, filtered)
// outer relation is broadcast to every partition of the inner, which must be
// a base dataset carrying a secondary index on the (single) inner join key.
// Outer rows probe the partition-local index a chunk at a time; residual
// composite-key fields are checked after the fetch. Output tuples are
// outer⧺inner and inherit the inner dataset's partitioning only if the inner
// is scanned unfiltered (it is, per the algorithm's precondition). It is
// IndexNLJoinStream over the outer relation, read where it landed, collected.
func IndexNLJoin(ctx *Context, outer *Relation, inner *storage.Dataset, innerAlias string,
	outerKeys []string, innerKeys []string, innerFilter expr.Expr) (*Relation, error) {
	return collectJoin(len(inner.Parts), func(mk SinkFactory) error {
		return IndexNLJoinStream(ctx, SourceOf(ctx, outer), inner, innerAlias, outerKeys, innerKeys, innerFilter, true, mk)
	})
}

// indexProbe is one partition's indexed nested-loop probe: it owns the
// partition's inner access (resident rows, or the paged store's batched
// fetcher) and the per-batch scratch.
type indexProbe struct {
	idx   *storage.Index
	p     int
	part  []types.Tuple     // resident inner rows; empty for a paged inner
	view  *storage.PartView // paged inner rows, fetched a batch at a time
	rowAt []int             // index position → partition-local row offset

	key0                int
	oResidual, residual []int // composite-key columns checked after the fetch
	pred                expr.Compiled
	acct                *cluster.Accounting
	outerFirst          bool // output tuples are outer⧺inner, else inner⧺outer
	outWidth            int

	arena  types.Arena
	ranges []int32
	offs   []int
	inner  []types.Tuple
}

func newIndexProbe(ctx *Context, inner *storage.Dataset, idx *storage.Index, p int, oCols, iCols []int, pred expr.Compiled, outerFirst bool, outWidth int) *indexProbe {
	pr := &indexProbe{
		idx: idx, p: p, part: inner.Parts[p], rowAt: idx.Rows(p),
		key0: oCols[0], oResidual: oCols[1:], residual: iCols[1:],
		pred: pred, acct: ctx.Accounting(), outerFirst: outerFirst, outWidth: outWidth,
	}
	if pgd := inner.Paged(); pgd != nil {
		pr.view = pgd.Part(p, ctx.PageStats)
	}
	return pr
}

// join probes the index with every row of outer and returns dst[:0] extended
// with the matches' output tuples, in (outer row, index position) order. The
// outer rows are one batch: a chunk-sized window of the landed outer.
func (pr *indexProbe) join(outer []types.Tuple, dst []types.Tuple) ([]types.Tuple, error) {
	// Pass 1: resolve every outer row's index range once. Lookup yields a
	// position range over the sorted index keys — no per-probe []int
	// materialization — and the range widths bound the output exactly
	// (pre-filter), so the header slice and arena are sized up front.
	pr.ranges = slices.Grow(pr.ranges[:0], 2*len(outer))[:2*len(outer)]
	ranges := pr.ranges
	var fetched int64
	for o, ot := range outer {
		lo, hi := pr.idx.Lookup(pr.p, ot[pr.key0])
		ranges[2*o], ranges[2*o+1] = int32(lo), int32(hi)
		fetched += int64(hi - lo)
	}
	pr.acct.IndexLookups.Add(int64(len(outer)))
	pr.acct.IndexRows.Add(fetched)
	if dst == nil || cap(dst) < int(fetched) {
		dst = make([]types.Tuple, 0, fetched)
	}
	dst = dst[:0]
	if fetched == 0 {
		return dst, nil
	}
	rowAt := pr.rowAt
	if pr.view == nil && len(pr.residual) == 0 && pr.pred == nil {
		// Resident inner, no post-fetch filtering: the bound is exact, and
		// the fetch loop carries no per-row branch work.
		pr.arena.Reserve(int(fetched) * pr.outWidth)
		for o, ot := range outer {
			for i := ranges[2*o]; i < ranges[2*o+1]; i++ {
				dst = append(dst, pr.concat(ot, pr.part[rowAt[i]]))
			}
		}
		return dst, nil
	}
	// Pass 2 (paged inner): every offset the batch resolved goes to the store
	// in one fetch, which reads each touched page once and builds only the
	// matched rows; inner[k] is the k-th fetched row in probe order.
	if pr.view != nil {
		pr.offs = pr.offs[:0]
		for o := range outer {
			for i := ranges[2*o]; i < ranges[2*o+1]; i++ {
				pr.offs = append(pr.offs, rowAt[i])
			}
		}
		var err error
		pr.inner, err = pr.view.Fetch(pr.offs, pr.inner[:0])
		if err != nil {
			return nil, err
		}
	}
	k := 0
	for o, ot := range outer {
		for i := ranges[2*o]; i < ranges[2*o+1]; i++ {
			var it types.Tuple
			if pr.view != nil {
				it = pr.inner[k]
				k++
			} else {
				it = pr.part[rowAt[i]]
			}
			if len(pr.residual) > 0 && !ot.KeysEqual(pr.oResidual, it, pr.residual) {
				continue
			}
			if pr.pred != nil {
				v, err := pr.pred(it)
				if err != nil {
					return nil, err
				}
				if !v.IsTrue() {
					continue
				}
			}
			dst = append(dst, pr.concat(ot, it))
		}
	}
	return dst, nil
}

// concat writes one match's output tuple, outer half first or second.
func (pr *indexProbe) concat(ot, it types.Tuple) types.Tuple {
	if pr.outerFirst {
		return pr.arena.Concat(ot, it)
	}
	return pr.arena.Concat(it, ot)
}
