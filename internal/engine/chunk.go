package engine

import (
	"io"
	"slices"

	"dynopt/internal/types"
)

// This file defines the chunked streaming contracts of the stage pipeline.
// A stage runs scan→filter→project→exchange→probe→sink as one pull-driven
// pass over fixed-capacity tuple batches, so the probe side of a join is
// never materialized as a whole relation and the Sink never re-walks the
// join output. The build side of a hash join — and every materialized
// intermediate between re-optimization points — still lands in a Relation
// or Dataset: the paper's materialize-between-stages contract is the stage
// boundary, and streaming applies strictly within it.

// defaultChunkRows is the default row capacity of one pipeline chunk. Large
// enough to amortize per-chunk costs (channel handoff in the exchange,
// prehash calls) over a thousand rows, small enough that a chunk and its
// prehash/size sidecars stay cache-resident through the scatter→probe→sink
// pass. Config.ChunkRows overrides it per DB, threaded here through
// Context.ChunkRows; tests shrink it to exercise chunk-boundary edges.
const defaultChunkRows = 1024

// chunkRows returns this execution's chunk capacity.
func (c *Context) chunkRows() int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	return defaultChunkRows
}

// Chunk is one batch of tuples flowing through a stage pipeline, with
// optional sidecars the producer computed anyway: a selection vector, a
// projection map, typed column vectors, join-key prehashes (exchange
// scatter), encoded byte sizes — the width every row shares, or the live
// rows' total (metering) — and the count of rows a join filter kept off the
// wire. A chunk handed out by a Cursor is valid only until the next
// Next call; consumers that retain rows copy them out through appendLive
// (the values themselves live in arena or dataset storage and stay valid).
//
// Selection semantics: when Sel is non-nil it lists the live row indexes
// into Rows, ascending — the fused scan filter marks rows instead of
// copying tuple headers. Hashes always align with the LIVE rows (Hashes[k]
// belongs to Rows[Sel[k]]), so sidecar consumers never index through dead
// rows.
//
// Projection semantics: when Proj is non-nil, Rows are stored rows wider
// than the source's schema, and schema column i lives at Rows[r][Proj[i]] —
// the resident scan's projection is this map, not a copy, because the
// stored row is already in memory and a narrowed copy of a row the join
// drops is pure garbage. Cols stays physical: Cols.Col(Proj[i]) is schema
// column i. Bytes are over the projected columns only, so every metered
// byte is what a narrowed row would have weighed — and when every stored
// row of the scanned partition weighs the same over those columns, the
// chunk says so once (RowBytes) and no row is read just to be sized.
// Consumers that only look at rows (key hashing, key comparison, sizing,
// the probe loop, the scatter) read through the map, resolved per chunk and
// never per row; a join writes its output tuple in one step from the build
// row, the stored probe row and the map. Consumers that keep rows (sinks, and
// the small sides that land: build sides, an index join's outer) narrow them
// at their boundary through appendLive, and a row appended to a probe run is
// narrowed through the spilling join's scratch tuple — the only places a
// projected row is ever built.
type Chunk struct {
	Rows []types.Tuple
	Sel  []int32 // live row indexes into Rows, ascending; nil = all rows live
	Proj []int   // schema column -> offset into each row; nil = rows are at schema width
	// Hashes are the join-key prehashes aligned with the live rows. Nil means
	// not hashed yet: a chunk straight off a cursor is hashed where it is first
	// needed (the probe loop, after the join filter; the spilling join, before
	// it routes rows to sub-partitions). The scatter, a build exchange and a
	// run read back hand chunks on hashed.
	Hashes []uint64
	// RowBytes, when > 0, is the encoded size of every live row over the
	// projected columns — EncodedSizeCols(Proj) without the walk. A resident
	// base scan sets it from the partition's width profile
	// (storage.Dataset.RowBytes); 0 means sizes differ or are unknown, and
	// whoever needs one walks the row. A sidecar like Hashes, not an option.
	RowBytes int64
	// Bytes is the encoded size of the live rows together, over the projected
	// columns, when the producer was asked for it (the simulated spill model's
	// probe bytes); 0 otherwise. It includes the Skipped rows' bytes.
	Bytes int64
	// Skipped counts probe rows the join filter (keyFilter) ruled out before
	// this chunk: rows the scatter routed to its destination — hashed, routed
	// and metered as shuffle, their bytes in Bytes — or rows a paged scan
	// dropped before building them (pagedCursor.pushFilter, only where no
	// one reads Bytes). They are not in Rows, but the probe loop counts them
	// as probed, so ProbeRows and the simulated spill model's probe rows and
	// bytes read exactly as if they had arrived. A chunk may hold only
	// skipped rows. 0 everywhere but those two producers.
	Skipped int
	// Cols serves typed column vectors over Rows (NOT selection-filtered and
	// NOT projected: vectors align with Rows and are indexed by stored column
	// offset; consumers apply Sel and Proj themselves). Nil when the producer
	// has no columnar form; valid until the next Next call.
	Cols types.ColSource
	// written is the scatter exchange's bookkeeping on the buffers it owns:
	// the most row headers Rows held in any earlier use, so a buffer going to
	// the pool clears what was written and no more.
	written int
}

// Live returns the number of live rows in the chunk.
func (c *Chunk) Live() int {
	if c.Sel != nil {
		return len(c.Sel)
	}
	return len(c.Rows)
}

// liveAt returns the index into Rows of live row k.
func (c *Chunk) liveAt(k int) int {
	if c.Sel != nil {
		return int(c.Sel[k])
	}
	return k
}

// appendLive appends the chunk's live rows to dst in order, at the source's
// schema width: tuple-header copies for rows already that wide, one arena
// gather per row under a projection map. This is the narrowing boundary of
// every consumer that keeps rows.
func (c *Chunk) appendLive(dst []types.Tuple, arena *types.Arena) []types.Tuple {
	switch {
	case c.Proj == nil && c.Sel == nil:
		return append(dst, c.Rows...)
	case c.Proj == nil:
		for _, r := range c.Sel {
			dst = append(dst, c.Rows[r])
		}
	case c.Sel == nil:
		//dynopt:hotpath
		for _, t := range c.Rows {
			dst = append(dst, arena.Gather(t, c.Proj))
		}
	default:
		//dynopt:hotpath
		for _, r := range c.Sel {
			dst = append(dst, arena.Gather(c.Rows[r], c.Proj))
		}
	}
	return dst
}

// liveBytes sums the encoded size of the live rows over the projected
// columns: one multiplication when the chunk knows its rows' width.
func (c *Chunk) liveBytes() int64 {
	if c.RowBytes > 0 {
		return c.RowBytes * int64(c.Live())
	}
	var n int64
	if c.Sel != nil {
		//dynopt:hotpath
		for _, r := range c.Sel {
			n += int64(c.Rows[r].EncodedSizeCols(c.Proj)) //dynopt:size-ok the one walk behind a chunk's metered bytes when neither a partition hint nor a row width is known
		}
		return n
	}
	//dynopt:hotpath
	for _, t := range c.Rows {
		n += int64(t.EncodedSizeCols(c.Proj)) //dynopt:size-ok the one walk behind a chunk's metered bytes when neither a partition hint nor a row width is known
	}
	return n
}

// dense returns the chunk's live rows as a dense slice at schema width:
// Rows itself when the chunk carries neither selection nor map, else *buf
// refilled through appendLive. The result is valid until the next call.
func (c *Chunk) dense(buf *[]types.Tuple, arena *types.Arena) []types.Tuple {
	if c.Sel == nil && c.Proj == nil {
		return c.Rows
	}
	*buf = c.appendLive((*buf)[:0], arena)
	return *buf
}

// physCols maps schema column offsets to offsets into a chunk's rows: cols
// itself without a projection map, else cols through proj into *buf (reused
// across chunks). Once per chunk, never per row.
func physCols(proj, cols []int, buf *[]int) []int {
	if proj == nil {
		return cols
	}
	out := (*buf)[:0]
	for _, c := range cols {
		out = append(out, proj[c])
	}
	*buf = out
	return out
}

// keyHasher computes one stream's join-key prehashes chunk by chunk into
// reused buffers, aligned with the live rows. Key columns are schema
// offsets; a projected chunk maps them to stored offsets first, so rows and
// column vectors are both read in place. When the producer attached a
// columnar form and every key column gathers cleanly, the hash runs a
// column at a time (types.HashColsInto — bit-identical to the row form);
// Mixed columns or row-only chunks take the row path. String key columns
// decline too: gathering string headers costs more than the per-value kind
// dispatch the columnar fold saves, so row hashing wins there.
type keyHasher struct {
	keyCols []int
	phys    []int // scratch: keyCols mapped through the current chunk's Proj
	hashes  []uint64
	vecs    []*types.ColVec
}

// hash returns c's prehashes, valid until the next call.
func (h *keyHasher) hash(c *Chunk) []uint64 {
	keyCols := physCols(c.Proj, h.keyCols, &h.phys)
	if c.Cols != nil {
		h.vecs = h.vecs[:0]
		clean := true
		for _, kc := range keyCols {
			v := c.Cols.Col(kc)
			if v == nil || v.Mixed || v.Kind == types.KindString {
				clean = false
				break
			}
			h.vecs = append(h.vecs, v)
		}
		if clean {
			h.hashes = types.HashColsInto(h.vecs, c.Sel, len(c.Rows), h.hashes)
			return h.hashes
		}
	}
	if c.Sel != nil {
		h.hashes = types.HashKeysSelInto(c.Rows, c.Sel, keyCols, h.hashes)
	} else {
		h.hashes = types.HashKeysInto(c.Rows, keyCols, h.hashes)
	}
	return h.hashes
}

// Cursor streams one partition's chunks. Next returns io.EOF at a clean
// end. A cursor is single-goroutine; cursors of different partitions may be
// pulled concurrently.
type Cursor interface {
	Next() (*Chunk, error)
}

// Source is a partitioned pull-based chunk producer — the streaming face of
// a relation or dataset scan. Schema and partitioning are known before any
// row is pulled, so joins can plan output shape and exchange skipping up
// front exactly as they do for materialized relations.
type Source interface {
	Schema() *types.Schema
	Parts() int
	// PartCols mirrors Relation.PartCols: the column offsets the stream is
	// hash-partitioned on, nil when unknown.
	PartCols() []int
	// PartBytesHint returns partition p's total encoded bytes when the
	// producer knows them without walking rows (cached dataset sizes), or
	// -1 when the consumer must sum per-row sizes itself.
	PartBytesHint(p int) int64
	// Open starts partition p's cursor. Each partition is opened at most
	// once per execution.
	Open(p int) (Cursor, error)
}

// Sink consumes one stage's output chunk-by-chunk. Emit is called from
// partition worker goroutines — concurrently across partitions, in output
// order within one partition — and must not retain rows beyond the call
// (it copies the tuple headers it keeps). The rows' value storage is
// arena-backed by the producing operator and stays valid.
type Sink interface {
	Emit(p int, rows []types.Tuple) error
}

// SinkFactory builds the stage's sink once the join has validated its
// inputs and knows the output schema and partitioning. Streaming joins call
// it exactly once before the first Emit.
type SinkFactory func(schema *types.Schema, partCols []int) (Sink, error)

// partBlocks holds each partition's tuple headers as a sink receives them:
// one exact-size copy per Emit, joined into the partition slice once, at its
// final length. Appending to one growing slice would re-copy the partition at
// every growth step: about three times its final size in allocation, for
// headers that are a quarter of a narrow row's bytes.
type partBlocks [][][]types.Tuple

// add keeps a copy of rows as partition p's next block. Called concurrently
// for different partitions, in order within one.
func (b partBlocks) add(p int, rows []types.Tuple) {
	if len(rows) > 0 {
		b[p] = append(b[p], slices.Clone(rows))
	}
}

// join returns the partition slices. A partition that received one block is
// that block, as it is; one that received nothing stays nil.
func (b partBlocks) join() [][]types.Tuple {
	parts := make([][]types.Tuple, len(b))
	for p, blocks := range b {
		switch len(blocks) {
		case 0:
		case 1:
			parts[p] = blocks[0]
		default:
			var total int
			for _, blk := range blocks {
				total += len(blk)
			}
			rows := make([]types.Tuple, 0, total)
			for _, blk := range blocks {
				rows = append(rows, blk...)
			}
			parts[p] = rows
		}
	}
	return parts
}

// relationSink lands a join's output as a Relation: every plan-tree join
// whose result feeds another operator, and the relation-in entry points.
type relationSink struct {
	blocks partBlocks
}

func (s *relationSink) Emit(p int, rows []types.Tuple) error {
	s.blocks.add(p, rows)
	return nil
}

// collectJoin runs a streaming join into a relationSink of nparts partitions
// and returns what landed, with the schema and partitioning the join
// announced to its sink factory.
func collectJoin(nparts int, run func(mk SinkFactory) error) (*Relation, error) {
	sink := &relationSink{blocks: make(partBlocks, nparts)}
	out := &Relation{}
	err := run(func(schema *types.Schema, partCols []int) (Sink, error) {
		out.Schema, out.PartCols = schema, partCols
		return sink, nil
	})
	if err != nil {
		return nil, err
	}
	out.Parts = sink.blocks.join()
	return out, nil
}

// RunToSink streams a source straight into a sink, partition-parallel —
// the fused scan→sink pipeline of a push-down stage: filter, projection,
// statistics observation, and write metering all happen in the one pass
// over each chunk. The sink keeps rows, so chunks carrying a selection
// vector or a projection map are flattened and narrowed through a reusable
// buffer here — sinks see dense row slices at schema width.
func RunToSink(ctx *Context, src Source, sink Sink) error {
	return forEachPart(src.Parts(), func(p int) error {
		cur, err := src.Open(p)
		if err != nil {
			return err
		}
		var buf []types.Tuple
		var arena types.Arena
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			c, err := cur.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := sink.Emit(p, c.dense(&buf, &arena)); err != nil {
				return err
			}
		}
	})
}

// relationSource adapts a materialized Relation to the Source interface:
// cursors slide fixed-capacity windows over the partition slices, zero-copy.
type relationSource struct {
	rel   *Relation
	rows  int
	noVec bool
}

// SourceOf returns a streaming view over a materialized relation, windowed
// at the execution's configured chunk capacity.
func SourceOf(ctx *Context, rel *Relation) Source {
	return &relationSource{rel: rel, rows: ctx.chunkRows(), noVec: ctx.noVec}
}

func (s *relationSource) Schema() *types.Schema { return s.rel.Schema }
func (s *relationSource) Parts() int            { return len(s.rel.Parts) }
func (s *relationSource) PartCols() []int       { return s.rel.PartCols }

// PartBytesHint reports cached sizes only: forcing the relation's lazy size
// pass here would re-add the whole-relation walk streaming exists to avoid.
// Consumers that need sizes fall back to summing them per row.
func (s *relationSource) PartBytesHint(p int) int64 {
	return s.rel.sizes.PartIfKnown(p)
}

func (s *relationSource) Open(p int) (Cursor, error) {
	cur := &sliceCursor{rows: s.rel.Parts[p], size: s.rows}
	if !s.noVec {
		cur.cols = types.NewColCache(s.rel.Schema)
	}
	return cur, nil
}

// sliceCursor windows an in-memory row slice into chunks, with the same
// lazy columnar access a storage ChunkReader provides — relation-backed
// probe sides feed the columnar prehash too.
type sliceCursor struct {
	rows []types.Tuple
	size int
	off  int
	cols *types.ColCache
	c    Chunk
}

func (c *sliceCursor) Next() (*Chunk, error) {
	if c.off >= len(c.rows) {
		return nil, io.EOF
	}
	end := c.off + c.size
	if end > len(c.rows) {
		end = len(c.rows)
	}
	win := c.rows[c.off:end]
	c.off = end
	c.c = Chunk{Rows: win}
	if c.cols != nil {
		c.cols.SetWindow(win)
		c.c.Cols = c.cols
	}
	return &c.c, nil
}
