package engine

import (
	"fmt"
	"io"
	"sync"

	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// scanPrep is the per-scan compilation: compiled predicate, projection
// offsets, output schema, and surviving partition columns.
type scanPrep struct {
	qualified *types.Schema
	pred      expr.Compiled
	// vpred is the predicate's vectorized form, nil when the expression has
	// no kernel (UDF calls, arithmetic, unsupported shapes) or under the
	// noVec test hook — the cursor then filters row-at-a-time with pred.
	vpred     expr.VecPred
	projIdx   []int
	outSchema *types.Schema
	partCols  []int
	// Paged-scan pushdown state (nil for resident datasets or no filter): the
	// filter's extracted zone-map ranges, and the need-mask of the columns it
	// reads.
	zones      []expr.ColRange
	filterCols []bool
}

// passThrough reports whether the scan emits stored rows unchanged.
func (sp *scanPrep) passThrough() bool { return sp.pred == nil && sp.projIdx == nil }

// prepareScan compiles the pushed-down filter and projection against the
// dataset's alias-qualified schema and resolves which partitioning fields
// survive the projection.
func prepareScan(ctx *Context, ds *storage.Dataset, alias string, filter expr.Expr, project []string) (*scanPrep, error) {
	sp := &scanPrep{qualified: ds.Schema.Requalify(alias)}
	env := ctx.Env(sp.qualified)
	if filter != nil {
		var err error
		sp.pred, err = expr.Compile(filter, env)
		if err != nil {
			return nil, err
		}
		// A vectorized kernel is an optimization, never a requirement: any
		// compile refusal (unsupported node, unresolved column) silently
		// keeps the scalar path, and the kernels themselves fall back per
		// chunk when a column gathers mixed-kind.
		if !ctx.noVec {
			if vp, ok, verr := expr.CompileVec(filter, env); verr == nil && ok {
				sp.vpred = vp
			}
		}
	}
	sp.outSchema = sp.qualified
	if project != nil {
		names := make([]string, len(project))
		for i, p := range project {
			names[i] = alias + "." + p
		}
		var err error
		sp.outSchema, sp.projIdx, err = sp.qualified.Project(names)
		if err != nil {
			return nil, err
		}
	}
	// Partitioning survives the scan when every partitioning field survives
	// the projection (datasets are loaded hash-partitioned on their
	// partition fields).
	if pf := ds.PartitionFields(); len(pf) > 0 {
		cols := make([]int, 0, len(pf))
		ok := true
		for _, f := range pf {
			idx, found := sp.outSchema.Index(alias + "." + f)
			if !found {
				ok = false
				break
			}
			cols = append(cols, idx)
		}
		if ok {
			sp.partCols = cols
		}
	}
	if ds.IsPaged() && filter != nil {
		sp.zones = expr.ZoneRanges(filter, env)
		sp.filterCols = pageFilterCols(sp, filter)
	}
	return sp, nil
}

// identitySel returns the selection of all n rows of a window in *buf,
// regrown when short.
func identitySel(n int, buf *[]int32) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	sel := (*buf)[:n]
	//dynopt:hotpath
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// filter runs the fused predicate over a window — win its row form, cols its
// column form — and returns the live selection, ascending, in *buf: the
// vectorized kernel narrowing all rows when one compiled, else the rows the
// scalar predicate keeps. Both scan cursors filter through here; they differ
// in what a window is (stored rows, or a decoded page's filter columns).
func (sp *scanPrep) filter(win []types.Tuple, cols types.ColSource, buf *[]int32) ([]int32, error) {
	sel := identitySel(len(win), buf)
	if sp.vpred != nil {
		return sp.vpred(win, cols, sel)
	}
	sel = sel[:0]
	//dynopt:hotpath
	for i, t := range win {
		v, err := sp.pred(t)
		if err != nil {
			return nil, err
		}
		if v.IsTrue() {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

// meterScanPart charges one partition's read: scan I/O for base datasets,
// materialized-read I/O for temps (the Reader operator of Figure 4). Scan
// I/O is metered for every stored row whether or not the filter keeps it,
// so the byte count is the partition's (cached) encoded size — no
// per-tuple EncodedSize walk.
func meterScanPart(ctx *Context, ds *storage.Dataset, p int) {
	acct := ctx.Accounting()
	rows := ds.PartRows(p)
	bytes := ds.PartBytes(p)
	if ds.Temp {
		acct.MatReadRows.Add(rows)
		acct.MatReadBytes.Add(bytes)
	} else {
		acct.ScanRows.Add(rows)
		acct.ScanBytes.Add(bytes)
	}
}

// Scan reads a dataset bound to an alias, applying an optional pushed-down
// filter and projection (the fused scan→select→project pipeline of one
// Hyracks stage), and lands the result as a Relation: ScanSource's cursors
// collected partition by partition, for the callers that must hold a scan
// whole — a broadcast build side, a query with no join.
func Scan(ctx *Context, ds *storage.Dataset, alias string, filter expr.Expr, project []string) (*Relation, error) {
	src, err := ScanSource(ctx, ds, alias, filter, project)
	if err != nil {
		return nil, err
	}
	return materializeSource(ctx, src)
}

// ScanSource returns the streaming scan over a dataset: each partition's
// cursor decodes, filters, and projects chunk-at-a-time, so a probe side
// flows into its join without ever materializing as a Relation. Read I/O
// for a partition is metered in full when its cursor opens.
func ScanSource(ctx *Context, ds *storage.Dataset, alias string, filter expr.Expr, project []string) (Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, err := prepareScan(ctx, ds, alias, filter, project)
	if err != nil {
		return nil, err
	}
	return &scanSource{ctx: ctx, ds: ds, prep: sp}, nil
}

type scanSource struct {
	ctx  *Context
	ds   *storage.Dataset
	prep *scanPrep

	// idle holds the window scratch of cursors that reached the end of their
	// partition. Partitions are opened a few at a time (one per worker), so a
	// scan gathers and filters through as many scratch sets as cursors are
	// open at once, not one per partition.
	mu   sync.Mutex
	idle []*scanScratch
}

// scanScratch is what a resident cursor reuses from window to window: the
// chunk reader with its column-vector buffers, and the selection buffer.
type scanScratch struct {
	r   *storage.ChunkReader
	sel []int32
}

// scratch returns a scratch set reading partition p: an idle one rebound,
// else a fresh one.
func (s *scanSource) scratch(p int) *scanScratch {
	s.mu.Lock()
	var sc *scanScratch
	if n := len(s.idle); n > 0 {
		sc, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.mu.Unlock()
	if sc == nil {
		return &scanScratch{r: s.ds.ChunkReader(p, s.ctx.chunkRows())}
	}
	s.ds.Rebind(sc.r, p)
	return sc
}

// release takes back the scratch of a cursor that will produce no more
// chunks; its last chunk is dead by the Cursor contract.
func (s *scanSource) release(sc *scanScratch) {
	s.mu.Lock()
	s.idle = append(s.idle, sc)
	s.mu.Unlock()
}

func (s *scanSource) Schema() *types.Schema { return s.prep.outSchema }
func (s *scanSource) Parts() int            { return len(s.ds.Parts) }
func (s *scanSource) PartCols() []int       { return s.prep.partCols }

// PartBytesHint: a pass-through scan's bytes are the dataset's cached
// partition size; filtered or projected output sizes are only knowable by
// walking rows, which the consumer does as they stream past.
func (s *scanSource) PartBytesHint(p int) int64 {
	if s.prep.passThrough() {
		return s.ds.PartBytes(p)
	}
	return -1
}

func (s *scanSource) Open(p int) (Cursor, error) {
	if err := s.ctx.Faults.Fire(faults.Point("scan.open")); err != nil {
		return nil, err
	}
	meterScanPart(s.ctx, s.ds, p)
	if s.ds.IsPaged() {
		return newPagedCursor(s.ctx, s.ds, s.prep, p), nil
	}
	return &scanCursor{ctx: s.ctx, src: s, prep: s.prep, scanScratch: s.scratch(p),
		rowBytes: s.ds.RowBytes(p, s.prep.projIdx)}, nil
}

// shared lands a pass-through scan of a resident dataset without reading a
// row: the relation shares the stored partitions and their cached sizes, so
// downstream metering never re-walks them. Nil for every other scan.
func (s *scanSource) shared() *Relation {
	if !s.prep.passThrough() || s.ds.IsPaged() {
		return nil
	}
	out := &Relation{Schema: s.prep.outSchema, Parts: make([][]types.Tuple, len(s.ds.Parts)), PartCols: s.prep.partCols}
	pb := make([]int64, len(s.ds.Parts))
	for p := range s.ds.Parts {
		meterScanPart(s.ctx, s.ds, p)
		out.Parts[p] = s.ds.Parts[p]
		pb[p] = s.ds.PartBytes(p)
	}
	out.seedSizes(pb, s.ds.ByteSize())
	return out
}

// scanCursor streams one partition of a resident dataset. It never copies a
// row or a tuple header: every chunk is the stored window itself. The
// predicate (vectorized over the reader's column vectors when a kernel
// compiled, row-at-a-time otherwise) marks live rows in a reused selection
// vector, and the projection rides along as the chunk's column map
// (Chunk.Proj) — the stored rows are already in memory, so a projected copy
// would save nothing and cost an allocation per scanned row. A row is
// narrowed to its projected width only where a consumer keeps it
// (Chunk.appendLive) or a join writes it into an output tuple.
type scanCursor struct {
	ctx  *Context
	src  *scanSource
	prep *scanPrep
	// The reader and the selection buffer, on loan from the source until the
	// partition ends (nil afterwards).
	*scanScratch
	// rowBytes is the partition's width profile folded through the
	// projection: the projected encoded size every stored row shares, 0 when
	// they differ. Stamped on every chunk as Chunk.RowBytes.
	rowBytes int64
	c        Chunk
}

func (c *scanCursor) Next() (*Chunk, error) {
	for {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
		if c.scanScratch == nil {
			return nil, io.EOF
		}
		win, ok := c.r.Next()
		if !ok {
			c.src.release(c.scanScratch)
			c.scanScratch = nil
			return nil, io.EOF
		}
		var sel []int32
		if c.prep.pred != nil {
			var err error
			sel, err = c.prep.filter(win, c.r, &c.sel)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				continue // a fully filtered window yields no chunk; keep pulling
			}
			// A full pass drops the selection so downstream stays on the
			// dense fast path.
			if len(sel) == len(win) {
				sel = nil
			}
		}
		c.c = Chunk{Rows: win, Sel: sel, Proj: c.prep.projIdx, RowBytes: c.rowBytes}
		// Under the noVec test hook chunks carry no column source, so
		// downstream stays fully scalar.
		if !c.ctx.noVec {
			c.c.Cols = c.r
		}
		return &c.c, nil
	}
}

// ScanByName resolves the dataset in the catalog and scans it.
func ScanByName(ctx *Context, dataset, alias string, filter expr.Expr, project []string) (*Relation, error) {
	ds, ok := ctx.Catalog.Get(dataset)
	if !ok {
		return nil, fmt.Errorf("engine: unknown dataset %q", dataset)
	}
	return Scan(ctx, ds, alias, filter, project)
}
