package engine

import (
	"io"

	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// The paged scan: the streaming cursor over a disk-native dataset's page
// file, decoding pages straight into the chunk spine. Three storage-level
// optimizations happen here before any row exists:
//
//   - Zone-map pruning: the pushed-down filter's extracted column ranges
//     (expr.ZoneRanges) are checked against each page's directory min/max
//     before the page is read — a page whose zone map proves every row fails
//     an ANDed conjunct is skipped without a read or a decode.
//   - Filter before materialize: only the filter's columns decode into the
//     ColVec form the vectorized predicate kernels consume, and the predicate
//     runs over them; a row that fails it is never built.
//   - Projection pushdown: survivors are built straight from the page payload
//     (types.MaterializePageRows) at the projected width — every unprojected
//     column's bytes are skipped inside the payload.
//
// Scan metering is identical to resident mode — the full partition is
// charged when the cursor opens, pruned or not (I/O actually saved is
// observed separately through Context.PageStats, which feeds the
// optimizer's access-path selection rather than the cost counters).

// pageFilterCols resolves the need-mask of the columns a pushed-down filter
// reads — the only columns a paged scan decodes into vectors.
func pageFilterCols(sp *scanPrep, filter expr.Expr) []bool {
	need := make([]bool, sp.qualified.Len())
	for _, c := range expr.ColumnsOf(filter) {
		name := c.Name
		if c.Qualifier != "" {
			name = c.Qualifier + "." + c.Name
		}
		if i, ok := sp.qualified.Index(name); ok {
			need[i] = true
		}
	}
	return need
}

// pagePruned reports whether page stats prove every row fails one of the
// filter's extracted ranges. A conjunct comparing a column constrains
// passing rows to [Lo, Hi] under Value.Compare; a page whose column min/max
// lies wholly outside — or that holds only NULLs, which fail any comparison
// — cannot contribute a row.
func pagePruned(zones []expr.ColRange, pi *storage.PageInfo) bool {
	for i := range zones {
		z := &zones[i]
		cs := &pi.Cols[z.Col]
		if !cs.HasMinMax {
			// Every value in this page's column is NULL: the comparison
			// conjunct evaluates false for all of them.
			return true
		}
		if z.HasLo && cs.Max.Compare(z.Lo) < 0 {
			return true
		}
		if z.HasHi && cs.Min.Compare(z.Hi) > 0 {
			return true
		}
	}
	return false
}

// pagedCursor streams one partition of a paged dataset: prune → read (through
// the shared page cache) → filter → materialize survivors → emit, page by
// page. A filtered page decodes only the predicate's columns and evaluates
// the predicate over them; tuples are then built, straight from the page
// payload into the arena at the scan's output width, for exactly the rows
// that passed. Chunks are dense windows of at most ctx.chunkRows() survivors,
// so chunk capacity and page boundaries stay independent.
type pagedCursor struct {
	ctx  *Context
	prep *scanPrep
	pg   *storage.PagedData
	part int
	page int // next page index

	// Predicate state, touched only under a filter: the page's decoded filter
	// columns, and the row-form window over them the predicate's scalar nodes
	// read — tuples carved from one reused buffer, cut off after the last
	// column the filter reads, with every column it does not read left NULL.
	pd     types.PageData
	mixed  types.ColVec
	pwidth int
	pwin   []types.Tuple
	pvals  []types.Value

	sel   []int32
	arena types.Arena
	rows  []types.Tuple // the current page's surviving rows
	lo    int           // next unemitted row within rows
	c     Chunk
}

func newPagedCursor(ctx *Context, ds *storage.Dataset, prep *scanPrep, p int) *pagedCursor {
	c := &pagedCursor{ctx: ctx, prep: prep, pg: ds.Paged(), part: p, mixed: types.ColVec{Mixed: true}}
	for col, need := range prep.filterCols {
		if need {
			c.pwidth = col + 1
		}
	}
	return c
}

// Col implements types.ColSource for the vectorized predicate: the current
// page's decoded filter columns, whole-page. Fallback-encoded columns (and
// columns the filter never named) surface as Mixed so kernels use the
// predicate window's row form.
func (c *pagedCursor) Col(i int) *types.ColVec {
	pc := &c.pd.Cols[i]
	if pc.Skipped || pc.Fallback {
		return &c.mixed
	}
	return &pc.Vec
}

// loadPage advances to the next unpruned page with at least one surviving
// row and materializes its survivors into c.rows. Returns io.EOF past the
// last page.
func (c *pagedCursor) loadPage() error {
	schema := c.pg.File().Schema()
	for {
		if c.page >= c.pg.Pages(c.part) {
			return io.EOF
		}
		i := c.page
		c.page++
		if c.ctx.PageStats != nil {
			c.ctx.PageStats.PagesTotal.Add(1)
		}
		if len(c.prep.zones) > 0 && pagePruned(c.prep.zones, c.pg.Page(c.part, i)) {
			if c.ctx.PageStats != nil {
				c.ctx.PageStats.PagesPruned.Add(1)
			}
			continue
		}
		buf, err := c.pg.ReadPage(c.part, i, c.ctx.PageStats)
		if err != nil {
			return err
		}
		nrows, err := types.PageRows(buf)
		if err != nil {
			return err
		}
		var sel []int32
		if c.prep.pred == nil {
			sel = identitySel(nrows, &c.sel)
		} else {
			if err := c.pd.DecodePage(buf, schema, c.prep.filterCols); err != nil {
				return err
			}
			if sel, err = c.prep.filter(c.predWindow(), c, &c.sel); err != nil {
				return err
			}
		}
		if len(sel) == 0 {
			continue
		}
		c.rows, err = types.MaterializePageRows(buf, schema, c.prep.projIdx, sel, &c.arena, c.rows[:0])
		if err != nil {
			return err
		}
		c.lo = 0
		return nil
	}
}

// predWindow lays the decoded filter columns out as the predicate's row
// window. The buffer is reused page to page: only filter columns are ever
// written, so every other column reads NULL without being cleared.
func (c *pagedCursor) predWindow() []types.Tuple {
	n, width := c.pd.NRows, c.pwidth
	if len(c.pwin) < n {
		c.pvals = make([]types.Value, n*width)
		c.pwin = make([]types.Tuple, n)
		for r := range c.pwin {
			c.pwin[r] = c.pvals[r*width : (r+1)*width : (r+1)*width]
		}
	}
	for col, need := range c.prep.filterCols[:width] {
		if !need {
			continue
		}
		//dynopt:hotpath
		for r := 0; r < n; r++ {
			c.pvals[r*width+col] = c.pd.Value(col, r)
		}
	}
	return c.pwin[:n]
}

func (c *pagedCursor) Next() (*Chunk, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	if c.lo >= len(c.rows) {
		if err := c.loadPage(); err != nil {
			return nil, err
		}
	}
	hi := min(c.lo+c.ctx.chunkRows(), len(c.rows))
	c.c = Chunk{Rows: c.rows[c.lo:hi]}
	c.lo = hi
	return &c.c, nil
}
