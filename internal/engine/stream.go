package engine

import (
	"fmt"
	"io"
	"sync"

	"dynopt/internal/faults"
	"dynopt/internal/types"
)

// This file implements the two streaming topologies a stage pipeline moves
// its probe side through:
//
//   - local:   partition p's cursor feeds worker p directly (exchange skipped
//              for pre-partitioned probes, and broadcast-join probes, which
//              never move),
//   - scatter: the hash exchange — source partitions route rows by key hash
//              into per-destination chunk buffers shipped over bounded
//              channels; each destination merges its inputs in source order —
//              the order the build side's exchange (exchange, join.go) lands
//              its rows in.
//
// A small side that goes to every node — a broadcast join's build, an index
// join's outer — is not streamed at all: it lands (materializeSource, below)
// and every partition's worker reads the one landed copy.
//
// All buffering is bounded: per-(src,dst) chunk buffers plus a small channel
// depth, so a stage's resident probe memory is O(parts² × chunkRows) tuple
// headers regardless of relation size.

// probeStream delivers one partition's chunks: a destination's probe side,
// and either side of the spilling join. Chunks off the scatter, a landed
// partition and a run read back carry their join-key prehashes; a chunk
// straight off its partition's cursor (localStream) does not, and is hashed
// where it is first needed — by the probe loop after the join filter, or by
// the spilling join before it routes rows to sub-partitions. Chunks are valid
// until the following next call.
type probeStream interface {
	next() (*Chunk, error)
}

// localStream adapts a partition cursor into a probe stream, adding only the
// chunk's encoded bytes when metering needs them. Rows, selection, projection
// map, column vectors and skipped-row count pass through untouched; Hashes
// stays nil (not hashed yet).
type localStream struct {
	cur       Cursor
	wantBytes bool
	c         Chunk
}

// openLocal opens partition p of a probe that does not move, for a join whose
// filter is filter (nil: none) over probe key columns pCols. When the
// consumer reads no chunk bytes and the cursor is a paged scan's, the filter
// goes into the cursor (pagedCursor.pushFilter) — the rows it drops are never built, and arrive
// counted as Chunk.Skipped — and openLocal returns a nil filter, so the worker
// does not mark the survivors twice; otherwise it returns filter for the
// worker to apply. Under wantBytes the worker filters: a dropped row's bytes
// are metered, and only a built row can be sized.
func openLocal(probe Source, p int, filter *keyFilter, pCols []int, wantBytes bool) (*localStream, *keyFilter, error) {
	cur, err := probe.Open(p)
	if err != nil {
		return nil, nil, err
	}
	if pc, ok := cur.(*pagedCursor); ok && filter != nil && !wantBytes {
		pc.pushFilter(filter, pCols[filter.key])
		filter = nil
	}
	return &localStream{cur: cur, wantBytes: wantBytes}, filter, nil
}

func (s *localStream) next() (*Chunk, error) {
	c, err := s.cur.Next()
	if err != nil {
		return nil, err
	}
	s.c = Chunk{Rows: c.Rows, Sel: c.Sel, Proj: c.Proj, Cols: c.Cols, RowBytes: c.RowBytes, Skipped: c.Skipped}
	if s.wantBytes {
		s.c.Bytes = c.liveBytes()
	}
	return &s.c, nil
}

// exchangeChanDepth bounds each (src,dst) channel. Depth 2 lets a producer
// stay one chunk ahead of a busy consumer without growing the resident set.
const exchangeChanDepth = 2

// scatterExchange is the streaming hash exchange state shared by producers
// and consumers. Chunks cycle through a free list once consumers are done
// with them, so a steady-state exchange allocates a bounded working set of
// chunk buffers instead of one per flush.
type scatterExchange struct {
	chans     [][]chan *Chunk // [src][dst]
	free      chan *Chunk
	done      chan struct{}
	rows      int        // per-chunk row capacity (the execution's chunkRows)
	bytes     bool       // shipped chunks carry their rows' encoded bytes
	filter    *keyFilter // the probe join's filter; nil: every row ships
	closeOnce sync.Once
}

func newScatterExchange(n, rows int, bytes bool) *scatterExchange {
	ex := &scatterExchange{
		chans: make([][]chan *Chunk, n),
		free:  make(chan *Chunk, n*n*(exchangeChanDepth+2)),
		done:  make(chan struct{}),
		rows:  rows,
		bytes: bytes,
	}
	for s := range ex.chans {
		ex.chans[s] = make([]chan *Chunk, n)
		for d := range ex.chans[s] {
			ex.chans[s][d] = make(chan *Chunk, exchangeChanDepth)
		}
	}
	return ex
}

// framePool holds exchange chunk buffers between exchanges, process-wide:
// an exchange's free list is handed over when it ends (recycle) and the next
// exchange draws on it before allocating (get), so a steady query stream
// ships its rows through the same frames instead of making n² full-capacity
// buffers per exchange for the collector to find. A pooled frame is empty and
// cleared — no stored row, column map or vector source is reachable through
// it.
var framePool sync.Pool // of *Chunk

// get returns a chunk with empty, full-row-capacity buffers: recycled from
// this exchange's free list, taken from the pool if its capacity is this
// exchange's, or fresh.
func (ex *scatterExchange) get() *Chunk {
	select {
	case c := <-ex.free:
		c.written = max(c.written, len(c.Rows))
		c.Rows, c.Hashes, c.Bytes, c.Skipped = c.Rows[:0], c.Hashes[:0], 0, 0
		return c
	default:
	}
	c, _ := framePool.Get().(*Chunk)
	if c == nil || cap(c.Rows) != ex.rows {
		c = &Chunk{
			Rows:   make([]types.Tuple, 0, ex.rows),
			Hashes: make([]uint64, 0, ex.rows),
		}
	}
	return c
}

// recycle hands the free list's chunks to the pool. Only a finished exchange
// may call it — every producer and consumer returned — so a chunk on the free
// list is held by no one: chunks still queued, held by a merge stream or half
// filled by a failed producer never reach the list and are left to the
// collector. Each is emptied first, clearing only the row headers ever
// written so no slab or arena stays reachable through the pool.
func (ex *scatterExchange) recycle() {
	for {
		select {
		case c := <-ex.free:
			clear(c.Rows[:max(c.written, len(c.Rows))])
			*c = Chunk{Rows: c.Rows[:0], Hashes: c.Hashes[:0]}
			framePool.Put(c)
		default:
			return
		}
	}
}

// release hands a fully consumed chunk back to the free list (dropping it
// if the list is full — the list is sized so that never happens in steady
// state).
func (ex *scatterExchange) release(c *Chunk) {
	select {
	case ex.free <- c:
	default:
	}
}

// cancel unblocks every producer; called when a consumer fails so the
// pipeline tears down instead of deadlocking on full channels.
func (ex *scatterExchange) cancel() {
	ex.closeOnce.Do(func() { close(ex.done) })
}

// produce runs source partition src: pull chunks, hash every row once, size
// the ones that need it, route rows into per-destination buffers, and ship
// each buffer when it fills. Only tuple headers move: a projected chunk's
// stored rows ship as they are, with the source's column map on the buffer,
// and are sized over their projected columns — the bytes a narrowed row would
// have shipped. Rows staying on their source partition are not metered as
// shuffle — identical to the relation exchange's accounting. A row the join
// filter rules out is hashed, routed and metered like any other, then counted
// on its destination's buffer (Chunk.Skipped, its bytes in Chunk.Bytes)
// instead of shipped, so every counter downstream reads as if it had been;
// a buffer holding only such rows still ships at the end. The producer
// closes its destination channels on every exit path — a cursor that fails to
// open included — so consumers always see a clean end of stream.
func (ex *scatterExchange) produce(ctx *Context, src int, from Source, keyCols []int) error {
	n := len(ex.chans)
	defer func() {
		for _, ch := range ex.chans[src] {
			close(ch)
		}
	}()
	cur, err := from.Open(src)
	if err != nil {
		return err
	}
	bufs := make([]*Chunk, n)
	keys := keyHasher{keyCols: keyCols}
	var hashBuf []uint64
	var keep []bool    // the current chunk's filter marks; nil: no filter
	var proj []int     // the current chunk's column map
	var rowBytes int64 // the current chunk's RowBytes
	var shuffleRows, shuffleBytes int64
	// The flush select also watches the caller's cancellation: with a
	// stalled (injected or genuinely wedged) consumer the bounded channel
	// never drains, and without this case a QueryOptions.Timeout would
	// expire while the producer sat blocked forever on the send.
	var cancelled <-chan struct{}
	if ctx.Cancel != nil {
		cancelled = ctx.Cancel.Done()
	}
	flush := func(d int) error {
		if err := ctx.Faults.Fire(faults.Point("exchange.produce")); err != nil {
			return err
		}
		c := bufs[d]
		bufs[d] = nil
		select {
		case ex.chans[src][d] <- c:
			return nil
		case <-ex.done:
			return errExchangeCancelled
		case <-cancelled:
			return ctx.Cancel.Err()
		}
	}
	// route places one live row (whose prehash sits at sidecar index k) into
	// its destination buffer, flushing the buffer when it fills. Declared
	// once per producer — the chunk loop below reassigns hashBuf, keep, proj
	// and rowBytes and the closure reads them through the captured variables.
	route := func(k int, t types.Tuple) error {
		h := hashBuf[k]
		d := int(h % uint64(n))
		// A row is sized when it moves (shuffle metering) or when the
		// consumers asked for sizes; one that stays put unasked is not read,
		// and neither is one whose chunk knows what every row weighs.
		sz := rowBytes
		if sz == 0 && (d != src || ex.bytes) {
			sz = int64(t.EncodedSizeCols(proj)) //dynopt:size-ok scatter seeds shuffle metering and downstream size hints in one walk
		}
		if d != src {
			shuffleRows++
			shuffleBytes += sz
		}
		b := bufs[d]
		if b == nil {
			b = ex.get()
			b.Proj = proj
			bufs[d] = b
		}
		if ex.bytes {
			b.Bytes += sz
		}
		if keep != nil && !keep[k] {
			b.Skipped++
			return nil
		}
		b.Rows = append(b.Rows, t)
		b.Hashes = append(b.Hashes, h)
		if len(b.Rows) == ex.rows {
			return flush(d)
		}
		return nil
	}
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
		hashBuf, proj, rowBytes = keys.hash(c), c.Proj, c.RowBytes
		if ex.filter != nil {
			keep = ex.filter.mark(c, ex.filter.probeCol(c, keyCols), keep)
		}
		if c.Sel != nil {
			//dynopt:hotpath
			for k, r := range c.Sel {
				if err := route(k, c.Rows[r]); err != nil {
					return err
				}
			}
			continue
		}
		//dynopt:hotpath
		for r, t := range c.Rows {
			if err := route(r, t); err != nil {
				return err
			}
		}
	}
	for d := 0; d < n; d++ {
		if bufs[d] != nil {
			if err := flush(d); err != nil {
				return err
			}
		}
	}
	acct := ctx.Accounting()
	acct.ShuffleRows.Add(shuffleRows)
	acct.ShuffleBytes.Add(shuffleBytes)
	return nil
}

var errExchangeCancelled = fmt.Errorf("engine: exchange cancelled by failed consumer")

// mergeStream is destination dst's side of the scatter: it drains source 0's
// channel to exhaustion, then source 1's, and so on, reproducing the relation
// exchange's source-block order exactly. It also guards the int32 row-index
// limit the downstream build tables rely on.
type mergeStream struct {
	ex   *scatterExchange
	dst  int
	src  int
	rows int64
	prev *Chunk // recycled on the following next call
	// faults carries the exchange.consume injection point — one Fire per pull,
	// so consumer errors and consumer stalls land mid-exchange, with producers
	// still live and channels still full. Nil on the drain-after-failure
	// stream, so teardown cannot be re-faulted into a deadlock.
	faults *faults.Registry
}

func (m *mergeStream) next() (*Chunk, error) {
	if err := m.faults.Fire(faults.Point("exchange.consume")); err != nil {
		return nil, err
	}
	if m.prev != nil {
		// The consumer pulled again, so it is done with the previous chunk
		// (consumers copy anything they keep); recycle its buffers.
		m.ex.release(m.prev)
		m.prev = nil
	}
	for m.src < len(m.ex.chans) {
		c, ok := <-m.ex.chans[m.src][m.dst]
		if !ok {
			m.src++
			continue
		}
		m.prev = c
		m.rows += int64(len(c.Rows))
		if m.rows > maxPartRows {
			m.ex.cancel()
			return nil, fmt.Errorf("engine: exchange destination %d would hold over %d rows, exceeding the int32 row-indexing limit", m.dst, maxPartRows)
		}
		return c, nil
	}
	return nil, io.EOF
}

// runScatter drives a full scatter pipeline: pooled producers over the
// source partitions, one consumer goroutine per destination (consumers must
// all be live for the source-order merge to drain, so they are not pooled —
// they spend most of their life blocked on channels). The first consumer
// error cancels the producers; the lowest-partition error wins, with
// producer errors taking precedence over the cancellations they cause.
// A row that changes partition is sized for shuffle metering either way;
// wantBytes sizes every row and ships each chunk's total to the consumers.
// A non-nil filter keeps the rows it rules out off the channels (produce).
func runScatter(ctx *Context, src Source, keyCols []int, filter *keyFilter, wantBytes bool, consume func(p int, st probeStream) error) error {
	n := src.Parts()
	ex := newScatterExchange(n, ctx.chunkRows(), wantBytes)
	ex.filter = filter
	consErrs := make([]error, n)
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			st := &mergeStream{ex: ex, dst: d, faults: ctx.Faults}
			// Contain consumer panics here, on the consumer's own goroutine:
			// a panicking probe worker becomes this destination's error and
			// flows into the same cancel-and-drain teardown as an error
			// return, instead of killing the process with producers blocked
			// on full channels.
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = faults.FromPanic("exchange", fmt.Sprintf("consumer %d", d), v)
					}
				}()
				return consume(d, st)
			}()
			if err != nil {
				consErrs[d] = err
				ex.cancel()
				// Keep draining so producers targeting this destination can
				// finish and close their remaining channels cleanly.
				//dynopt:cancel-ok drain-after-failure: the exchange is already cancelled, this loop only unblocks producers so they can exit
				for st := (&mergeStream{ex: ex, dst: d}); ; {
					if _, e := st.next(); e != nil {
						return
					}
				}
			}
		}(d)
	}
	prodErr := forEachPart(n, func(s int) error {
		return ex.produce(ctx, s, src, keyCols)
	})
	wg.Wait()
	// Every exit path — producer error, consumer error and its drain,
	// cancellation, contained panic — comes through here with all goroutines
	// gone, so the frames go back to the pool exactly once.
	ex.recycle()
	if prodErr != nil && prodErr != errExchangeCancelled {
		return prodErr
	}
	for _, err := range consErrs {
		if err != nil {
			return err
		}
	}
	return prodErr
}

// landed returns the relation a source is a view of, nil for one that must be
// read through its cursors. A landed source can be read in place, and read
// twice.
func landed(src Source) *Relation {
	if s, ok := src.(*relationSource); ok {
		return s.rel
	}
	return nil
}

// materializeSource lands a source as a Relation. A relation source already
// is one and a pass-through scan of a resident dataset shares its stored
// partitions; anything else is collected from its cursors partition-parallel,
// with the size cache seeded when the source knows every partition's bytes
// (a pass-through paged scan: the page directory's figures).
func materializeSource(ctx *Context, src Source) (*Relation, error) {
	if rel := landed(src); rel != nil {
		return rel, nil
	}
	if s, ok := src.(*scanSource); ok {
		if rel := s.shared(); rel != nil {
			return rel, nil
		}
	}
	n := src.Parts()
	out := &Relation{
		Schema:   src.Schema(),
		Parts:    make([][]types.Tuple, n),
		PartCols: src.PartCols(),
	}
	err := forEachPart(n, func(p int) error {
		cur, err := src.Open(p)
		if err != nil {
			return err
		}
		var rows []types.Tuple
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
			rows = c.appendLive(rows, &arena)
		}
		out.Parts[p] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	partBytes := make([]int64, n)
	var total int64
	for p := range partBytes {
		if partBytes[p] = src.PartBytesHint(p); partBytes[p] < 0 {
			return out, nil
		}
		total += partBytes[p]
	}
	out.seedSizes(partBytes, total)
	return out, nil
}

// colsMatch mirrors Relation.PartitionedOn for a Source's partitioning
// columns: exact, order-sensitive equality.
func colsMatch(have, want []int) bool {
	if len(have) == 0 || len(have) != len(want) {
		return false
	}
	for i := range want {
		if have[i] != want[i] {
			return false
		}
	}
	return true
}
