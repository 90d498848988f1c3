package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/memo"
	"dynopt/internal/sketch"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
	"dynopt/internal/storage"
	"dynopt/internal/tpcds"
	"dynopt/internal/tpch"
	"dynopt/internal/types"
)

// The layer pass of a traced run: spans around direct calls into each
// internal package's exported functions, on inputs taken from the workload's
// own tables, so every layer has a unit cost measured from outside. The
// suite is the same for every workload — what differs by workload is how
// often each layer is called, which the per-query counters of the rounds
// report.

// layerResults maps a per-layer metric name to its value.
type layerResults map[string]float64

// layerEnv is the pass's own copy of the workload's tables, loaded through
// the same generators the public loaders call.
type layerEnv struct {
	s      *session
	ctx    *engine.Context
	dir    string
	parent int
	out    layerResults
	rows   []string // forced-alternative rows for the human report
	err    error    // the first failed row; see row

	pagedLI *storage.Dataset // lineitem as page files, opened on first use
}

const (
	layerMinDur  = 60 * time.Millisecond
	layerMinReps = 3
	layerMaxReps = 200
)

// perSecond as a row's scale turns nanoseconds per unit into units per
// microsecond — MB/s when the unit is a byte.
const perSecond = -1

// row times run — until layerMinReps calls and layerMinDur have passed, one
// span per call — and files the median nanoseconds per unit, times scale,
// under metric; run returns how many units its call processed. prep, when
// set, runs untimed before every call. The first failure sticks: later rows
// are skipped and runLayers reports it, so a step reads top to bottom and
// checks e.err only where it uses what a row left behind.
func (e *layerEnv) row(metric string, scale float64, span string, prep func() error, run func() (int64, error)) {
	if e.err != nil {
		return
	}
	minDur := layerMinDur
	if e.s.quick {
		minDur = 0
	}
	var per []float64
	var total time.Duration
	for rep := 0; rep < layerMaxReps && (rep < layerMinReps || total < minDur); rep++ {
		if prep != nil {
			if e.err = prep(); e.err != nil {
				break
			}
		}
		id := e.s.rec.begin("layer:"+span, e.parent, 0)
		start := time.Now()
		units, err := run()
		d := time.Since(start)
		e.s.rec.end(id, map[string]float64{"units": float64(units)})
		if err == nil && units <= 0 {
			err = errors.New("no work done")
		}
		if e.err = err; err != nil {
			break
		}
		total += d
		per = append(per, float64(d)/float64(units))
	}
	if e.err != nil {
		e.err = fmt.Errorf("%s: %w", span, e.err)
		return
	}
	if ns := median(per); scale == perSecond {
		e.out[metric] = 1e3 / ns
	} else {
		e.out[metric] = ns * scale
	}
}

// countSink counts the rows a streamed scan delivers.
type countSink struct{ n atomic.Int64 }

func (c *countSink) Emit(_ int, rows []types.Tuple) error {
	c.n.Add(int64(len(rows)))
	return nil
}

func runLayers(s *session) (layerResults, error) {
	// The rounds are over: release the workload's DB before loading the
	// pass's own tables, so the two copies never share the heap.
	s.db = nil
	runtime.GC()

	e := &layerEnv{s: s, dir: filepath.Join(s.scratch, "layers"), out: layerResults{}}
	e.parent = s.rec.begin("layers", s.root, 0)
	defer func() { s.rec.end(e.parent, nil) }()
	for _, dir := range []string{e.dir, filepath.Join(e.dir, "spill"), filepath.Join(e.dir, "runs")} {
		if err := scratchDir(dir); err != nil {
			return nil, err
		}
	}
	e.ctx = &engine.Context{
		Cluster: cluster.New(benchNodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
		Acct:    &cluster.Accounting{},
		Scope:   "layer_",
	}
	if _, err := tpcds.Load(e.ctx, s.sf); err != nil {
		return nil, err
	}
	if _, err := tpch.Load(e.ctx, s.sf); err != nil {
		return nil, err
	}
	if err := tpcds.BuildIndexes(e.ctx); err != nil {
		return nil, err
	}
	if err := tpch.BuildIndexes(e.ctx); err != nil {
		return nil, err
	}
	for _, step := range []func() error{
		e.sqlLayers, e.exprLayers, e.typesLayers, e.sketchLayers, e.smallLayers,
		e.storageLayers, e.engineLayers, e.forcedAlternatives,
	} {
		if err := errors.Join(step(), e.err); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
	}
	if e.pagedLI != nil {
		if err := e.pagedLI.Paged().File().Close(); err != nil {
			return nil, err
		}
	}
	s.altRows = e.rows
	s.check(e.out["cluster.peak_grant_frac"] <= 1, "cluster.peak_grant_frac = %.3f, want <= 1", e.out["cluster.peak_grant_frac"])
	return e.out, nil
}

func (e *layerEnv) dataset(name string) *storage.Dataset {
	ds, ok := e.ctx.Catalog.Get(name)
	if !ok {
		panic("layer pass: dataset " + name + " not loaded") // the generators above register it
	}
	return ds
}

func (e *layerEnv) analyze(sql string) (*sqlpp.Graph, error) {
	q, err := sqlpp.Parse(sql)
	if err != nil {
		return nil, err
	}
	return sqlpp.Analyze(q, e.ctx.Catalog.Resolver())
}

// localFilter returns alias's pushed-down predicate in sql.
func (e *layerEnv) localFilter(sql, alias string) (expr.Expr, error) {
	g, err := e.analyze(sql)
	if err != nil {
		return nil, err
	}
	f := engine.FilterFor(g.Locals[alias])
	if f == nil {
		return nil, fmt.Errorf("no local predicate on %s", alias)
	}
	return f, nil
}

// statements are the distinct SQL texts of the workload's op list.
func (e *layerEnv) statements() []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range e.s.w.Ops {
		if !seen[o.SQL] {
			seen[o.SQL] = true
			out = append(out, o.SQL)
		}
	}
	return out
}

func (e *layerEnv) sqlLayers() error {
	stmts := e.statements()
	const batch = 20
	n := int64(batch * len(stmts))
	e.row("sqlpp.parse_us", 1e-3, "sqlpp.Parse", nil, func() (int64, error) {
		for i := 0; i < batch; i++ {
			for _, sql := range stmts {
				if _, err := sqlpp.Parse(sql); err != nil {
					return 0, err
				}
			}
		}
		return n, nil
	})
	// Analyze rewrites its query in place, so every call gets a fresh parse.
	var parsed []*sqlpp.Query
	var graphs []*sqlpp.Graph
	prep := func() error {
		parsed, graphs = parsed[:0], graphs[:0]
		for i := 0; i < batch; i++ {
			for _, sql := range stmts {
				q, err := sqlpp.Parse(sql)
				if err != nil {
					return err
				}
				parsed = append(parsed, q)
			}
		}
		return nil
	}
	e.row("sqlpp.analyze_us", 1e-3, "sqlpp.Analyze", prep, func() (int64, error) {
		for _, q := range parsed {
			g, err := sqlpp.Analyze(q, e.ctx.Catalog.Resolver())
			if err != nil {
				return 0, err
			}
			graphs = append(graphs, g)
		}
		return n, nil
	})
	// What the dynamic loop pays once per stage: print the rewritten query
	// and parse it again.
	e.row("sqlpp.reparse_us", 1e-3, "sqlpp.Query.SQL+Parse", nil, func() (int64, error) {
		for _, g := range graphs {
			if _, err := sqlpp.Parse(g.Query.SQL()); err != nil {
				return 0, err
			}
		}
		return int64(len(graphs)), nil
	})
	cfg := core.DefaultConfig()
	e.row("sqlpp.shape_us", 1e-3, "core.ShapeKey", nil, func() (int64, error) {
		for _, g := range graphs {
			if core.ShapeKey(g, cfg) == "" {
				return 0, errors.New("empty shape key")
			}
		}
		return int64(len(graphs)), nil
	})
	est := &core.Estimator{Cat: e.ctx.Catalog, Reg: e.ctx.Catalog.Stats()}
	e.row("core.plan_full_us", 1e-3, "core.PlanFull", nil, func() (int64, error) {
		for _, g := range graphs[:len(stmts)] {
			tables, err := core.BuildTables(est, g, g.NeededColumns(), g.Query.SelectStar)
			if err != nil {
				return 0, err
			}
			if _, err := core.PlanFull(est, g, tables, cfg.Algo); err != nil {
				return 0, err
			}
		}
		return int64(len(stmts)), nil
	})
	return nil
}

// exprLayers prices the scan predicate of Q8's orders filter both ways: the
// compiled row-at-a-time form and the vectorized kernel over column vectors.
func (e *layerEnv) exprLayers() error {
	orders := e.dataset("orders")
	filter, err := e.localFilter(tpch.Q8(), "o")
	if err != nil {
		return err
	}
	env := e.ctx.Env(orders.Schema.Requalify("o"))
	pred, err := expr.Compile(filter, env)
	if err != nil {
		return err
	}
	var scalarHits, vectorHits int64
	e.row("expr.filter_scalar_ns_per_row", 1, "expr.Compiled", nil, func() (int64, error) {
		scalarHits = 0
		for _, part := range orders.Parts {
			for _, t := range part {
				v, err := pred(t)
				if err != nil {
					return 0, err
				}
				if v.IsTrue() {
					scalarHits++
				}
			}
		}
		return orders.RowCount(), nil
	})
	kernel, ok, err := expr.CompileVec(filter, env)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("expr.CompileVec: Q8's orders filter no longer vectorizes")
	}
	sel := make([]int32, 1024)
	e.row("expr.filter_vector_ns_per_row", 1, "expr.VecPred", nil, func() (int64, error) {
		vectorHits = 0
		for p := range orders.Parts {
			r := orders.ChunkReader(p, len(sel))
			for {
				win, ok := r.Next()
				if !ok {
					break
				}
				s := sel[:len(win)]
				for i := range s {
					s[i] = int32(i)
				}
				live, err := kernel(win, r, s)
				if err != nil {
					return 0, err
				}
				vectorHits += int64(len(live))
			}
		}
		return orders.RowCount(), nil
	})
	if e.err == nil && scalarHits != vectorHits {
		return fmt.Errorf("expr: scalar filter kept %d rows, vector kernel %d", scalarHits, vectorHits)
	}
	return nil
}

func (e *layerEnv) typesLayers() error {
	li := e.dataset("lineitem")
	rows := li.Parts[0]
	var buf []byte
	offs := make([]int, 0, len(rows)+1)
	e.row("types.encode_tuple_ns", 1, "types.EncodeTuple", nil, func() (int64, error) {
		buf, offs = buf[:0], offs[:0]
		for _, t := range rows {
			offs = append(offs, len(buf))
			buf = types.EncodeTuple(buf, t)
		}
		return int64(len(rows)), nil
	})
	e.row("types.decode_tuple_ns", 1, "types.DecodeTuple", nil, func() (int64, error) {
		for _, off := range offs {
			if _, _, err := types.DecodeTuple(buf[off:]); err != nil {
				return 0, err
			}
		}
		return int64(len(offs)), nil
	})
	var pages [][]byte
	e.row("types.page_encode_ns_per_row", 1, "types.EncodePage", nil, func() (int64, error) {
		pages = pages[:0]
		for lo := 0; lo < len(rows); lo += storage.DefaultPageRows {
			page, _ := types.EncodePage(nil, li.Schema, rows[lo:min(lo+storage.DefaultPageRows, len(rows))])
			pages = append(pages, page)
		}
		return int64(len(rows)), nil
	})
	var pd types.PageData
	e.row("types.page_decode_ns_per_row", 1, "types.PageData.DecodePage", nil, func() (int64, error) {
		var n int64
		for _, page := range pages {
			if err := pd.DecodePage(page, li.Schema, nil); err != nil {
				return 0, err
			}
			n += int64(pd.NRows)
		}
		return n, nil
	})

	// The composite join key of Q17's fact-to-fact join, hashed row-wise and
	// column-wise (the column form pays its gather, as the engine does).
	ss := e.dataset("store_sales")
	keys := []int{ss.Schema.MustIndex("ss_customer_sk"), ss.Schema.MustIndex("ss_item_sk"), ss.Schema.MustIndex("ss_ticket_number")}
	var hashes []uint64
	var rowSum, colSum uint64
	e.row("types.hash_keys_ns_per_row", 1, "types.HashKeysInto", nil, func() (int64, error) {
		rowSum = 0
		for _, part := range ss.Parts {
			hashes = types.HashKeysInto(part, keys, hashes)
			for _, h := range hashes {
				rowSum += h
			}
		}
		return ss.RowCount(), nil
	})
	cols := make([]*types.ColVec, len(keys))
	e.row("types.hash_cols_ns_per_row", 1, "types.HashColsInto", nil, func() (int64, error) {
		colSum = 0
		for p := range ss.Parts {
			r := ss.ChunkReader(p, 1024)
			for {
				win, ok := r.Next()
				if !ok {
					break
				}
				for i, k := range keys {
					cols[i] = r.Col(k)
				}
				hashes = types.HashColsInto(cols, nil, len(win), hashes)
				for _, h := range hashes {
					colSum += h
				}
			}
		}
		return ss.RowCount(), nil
	})
	if e.err == nil && rowSum != colSum {
		return errors.New("types: row-wise and column-wise key hashes disagree")
	}
	return nil
}

func (e *layerEnv) sketchLayers() error {
	ss := e.dataset("store_sales")
	col := ss.Schema.MustIndex("ss_customer_sk")
	var vals []float64
	var hashes []uint64
	for _, part := range ss.Parts {
		for _, t := range part {
			vals = append(vals, float64(t[col].I()))
			hashes = append(hashes, t[col].Hash())
		}
	}
	e.row("sketch.gk_insert_ns", 1, "sketch.GK.Insert", nil, func() (int64, error) {
		g := sketch.NewGK(stats.DefaultGKEpsilon)
		for _, v := range vals {
			g.Insert(v)
		}
		return int64(len(vals)), nil
	})
	e.row("sketch.hll_add_ns", 1, "sketch.HLL.Add", nil, func() (int64, error) {
		h := sketch.NewHLL(sketch.DefaultHLLPrecision)
		for _, x := range hashes {
			h.Add(x)
		}
		return int64(len(hashes)), nil
	})
	// Online statistics as a stage's sink collects them: the join keys of the
	// remaining query only.
	only := map[string]bool{"ss_customer_sk": true, "ss_item_sk": true}
	e.row("stats.observe_tuple_ns", 1, "stats.DatasetStats.ObserveTuple", nil, func() (int64, error) {
		d := stats.NewDatasetStats("bench")
		for _, part := range ss.Parts {
			for _, t := range part {
				d.ObserveTuple(ss.Schema, t, only)
			}
		}
		return ss.RowCount(), nil
	})
	g, err := e.analyze(tpcds.Q17())
	if err != nil {
		return err
	}
	fields := map[string]map[string]bool{}
	for _, j := range g.Joins {
		for _, side := range []struct {
			alias string
			cols  []string
		}{{j.LeftAlias, j.LeftFields}, {j.RightAlias, j.RightFields}} {
			name := g.Tables[side.alias].Dataset
			if fields[name] == nil {
				fields[name] = map[string]bool{}
			}
			for _, c := range side.cols {
				fields[name][c] = true
			}
		}
	}
	const batch = 50
	e.row("stats.fingerprint_us", 1e-3, "stats.FingerprintOf", nil, func() (int64, error) {
		for i := 0; i < batch; i++ {
			if len(stats.FingerprintOf(e.ctx.Catalog.Stats(), fields)) == 0 {
				return 0, errors.New("empty fingerprint")
			}
		}
		return batch, nil
	})
	return nil
}

// smallLayers covers the bookkeeping layers: the plan memo, the memory
// governor and the catalog's per-stage temp registration.
func (e *layerEnv) smallLayers() error {
	const n = 10000
	store := memo.NewStore(64, memo.Options{})
	shapes := make([]string, 32)
	for i := range shapes {
		shapes[i] = fmt.Sprintf("shape-%d", i)
	}
	e.row("memo.put_ns", 1, "memo.Store.Put", nil, func() (int64, error) {
		born := store.Epoch()
		for i := 0; i < n; i++ {
			store.Put(&memo.Entry{Shape: shapes[i%len(shapes)], Born: born})
		}
		return n, nil
	})
	e.row("memo.get_ns", 1, "memo.Store.Get", nil, func() (int64, error) {
		for i := 0; i < n; i++ {
			if store.Get(shapes[i%len(shapes)]) == nil {
				return 0, errors.New("memo lost an entry")
			}
		}
		return n, nil
	})
	grant := cluster.New(benchNodes).Governor().Grant()
	defer grant.Close()
	e.row("cluster.grant_reserve_ns", 1, "cluster.Grant.Reserve+Release", nil, func() (int64, error) {
		for i := 0; i < n; i++ {
			grant.Reserve(64)
			grant.Release(64)
		}
		return n, nil
	})
	// One stage's temp: registered, then dropped with its scope.
	d1, err := e.filteredDates()
	if err != nil {
		return err
	}
	ds, st, err := engine.Materialize(e.ctx, d1, e.ctx.TempName("reg"), nil)
	if err != nil {
		return err
	}
	const regs = 200
	e.row("catalog.register_drop_us", 1e-3, "catalog.Register+DropPrefix", nil, func() (int64, error) {
		for i := 0; i < regs; i++ {
			if err := e.ctx.Catalog.Register(ds, st); err != nil {
				return 0, err
			}
			if e.ctx.Catalog.DropPrefix(catalog.TempPrefix(e.ctx.Scope)) != 1 {
				return 0, errors.New("temp not dropped")
			}
		}
		return regs, nil
	})
	return nil
}

// filteredDates is Q17's d1: date_dim under its month and year filter, the
// small filtered input that broadcasts and index-joins.
func (e *layerEnv) filteredDates() (*engine.Relation, error) {
	filter, err := e.localFilter(tpcds.Q17(), "d1")
	if err != nil {
		return nil, err
	}
	return engine.ScanByName(e.ctx, "date_dim", "d1", filter, nil)
}

// pagedCopy converts a resident dataset to page files under the pass's
// directory and opens it through cache (nil: uncached).
func (e *layerEnv) pagedCopy(name, sub string, cache *storage.PageCache) (*storage.Dataset, error) {
	dir := filepath.Join(e.dir, sub)
	ds := e.dataset(name)
	if err := storage.WritePaged(dir, ds, e.ctx.Catalog.Stats().Get(name), 0); err != nil {
		return nil, err
	}
	pds, _, err := storage.OpenPaged(dir, name, cache, nil)
	return pds, err
}

func (e *layerEnv) storageLayers() error {
	sr := e.dataset("store_returns")
	var rows []types.Tuple
	for _, part := range sr.Parts {
		rows = append(rows, part...)
	}
	var built *storage.Dataset
	e.row("storage.build_ns_per_row", 1, "storage.Build", nil, func() (n int64, err error) {
		built, _, err = storage.Build("bench_sr", sr.Schema, sr.PrimaryKey, rows, benchNodes)
		return int64(len(rows)), err
	})
	e.row("storage.build_index_ns_per_row", 1, "storage.BuildIndex", nil, func() (int64, error) {
		_, err := storage.BuildIndex(built, "sr_returned_date_sk")
		return int64(len(rows)), err
	})

	li := e.dataset("lineitem")
	liStats := e.ctx.Catalog.Stats().Get("lineitem")
	writes := 0
	e.row("storage.write_paged_mb_per_s", perSecond, "storage.WritePaged", nil, func() (int64, error) {
		writes++
		return li.ByteSize(), storage.WritePaged(filepath.Join(e.dir, fmt.Sprintf("write%d", writes)), li, liStats, 0)
	})
	var opened *storage.Dataset
	closeOpened := func() error {
		if opened == nil {
			return nil
		}
		err := opened.Paged().File().Close()
		opened = nil
		return err
	}
	liDir := filepath.Join(e.dir, "write1")
	e.row("storage.open_paged_ms", 1e-6, "storage.OpenPaged", closeOpened, func() (n int64, err error) {
		opened, _, err = storage.OpenPaged(liDir, "lineitem", nil, nil)
		return 1, err
	})
	if e.err != nil {
		return nil // nothing opened to read pages from
	}
	defer closeOpened()
	pg := opened.Paged()
	info, err := os.Stat(pg.File().Path())
	if err != nil {
		return err
	}
	e.out["storage.paged_bytes_per_user_byte"] = float64(info.Size()) / float64(li.ByteSize())
	// Uncached page reads: file read plus CRC, through the OS page cache.
	e.row("storage.page_read_us", 1e-3, "storage.PagedData.ReadPage", nil, func() (int64, error) {
		var n int64
		for p := 0; p < pg.File().Partitions(); p++ {
			for i := 0; i < pg.Pages(p); i++ {
				if _, err := pg.ReadPage(p, i, nil); err != nil {
					return 0, err
				}
				n++
			}
		}
		return n, nil
	})

	ss := e.dataset("store_sales")
	idx := ss.Indexes["ss_sold_date_sk"]
	days := e.dataset("date_dim").RowCount()
	e.row("storage.index_lookup_ns", 1, "storage.Index.Lookup", nil, func() (int64, error) {
		var n, found int64
		for p := 0; p < idx.Partitions(); p++ {
			for d := int64(0); d < days; d++ {
				lo, hi := idx.Lookup(p, types.Int(d))
				found += int64(hi - lo)
				n++
			}
		}
		if found != ss.RowCount() {
			return 0, fmt.Errorf("index found %d of %d rows", found, ss.RowCount())
		}
		return n, nil
	})

	// Spill run files: the storage face of the types run codec.
	sm := storage.NewSpillManager(filepath.Join(e.dir, "runs"), e.ctx.Scope)
	defer sm.Sweep()
	var run *storage.SpillFile
	liRows := li.Parts[0]
	e.row("storage.run_write_mb_per_s", perSecond, "storage.SpillFile.Append+Finish", nil, func() (n int64, err error) {
		if run, err = sm.Create("bench"); err != nil {
			return 0, err
		}
		for _, t := range liRows {
			if err := run.Append(t); err != nil {
				return 0, err
			}
		}
		return run.Finish()
	})
	e.row("storage.run_read_mb_per_s", perSecond, "storage.SpillReader.Next", nil, func() (int64, error) {
		r, err := run.Reader()
		if err != nil {
			return 0, err
		}
		defer r.Close()
		for n := 0; ; n++ {
			if _, err := r.Next(); err == io.EOF {
				if n != len(liRows) {
					return 0, fmt.Errorf("run read back %d of %d rows", n, len(liRows))
				}
				return run.Bytes(), nil
			} else if err != nil {
				return 0, err
			}
		}
	})
	return nil
}

// acctDiff runs fn and returns what it metered.
func acctDiff(ctx *engine.Context, fn func() error) (cluster.Snapshot, error) {
	before := ctx.Accounting().Snapshot()
	err := fn()
	return ctx.Accounting().Snapshot().Sub(before), err
}

var factKeys = struct{ ss, sr []string }{
	ss: []string{"ss.ss_customer_sk", "ss.ss_item_sk", "ss.ss_ticket_number"},
	sr: []string{"sr.sr_customer_sk", "sr.sr_item_sk", "sr.sr_ticket_number"},
}

// spillContext is e.ctx on a cluster of its own whose per-node join memory is
// budget bytes, with a real spill device and a grant, as a query under
// Config.SpillDir runs.
func (e *layerEnv) spillContext(budget int64) (*engine.Context, func()) {
	c := *e.ctx
	c.Cluster = cluster.New(benchNodes)
	c.Cluster.SetMemoryPerNodeBytes(budget)
	c.Acct = &cluster.Accounting{}
	c.Grant = c.Cluster.Governor().Grant()
	c.Spill = storage.NewSpillManager(filepath.Join(e.dir, "spill"), e.ctx.Scope)
	return &c, func() {
		c.Grant.Close()
		c.Spill.Sweep()
	}
}

func (e *layerEnv) engineLayers() error {
	ctx := e.ctx
	orders := e.dataset("orders")
	filter, err := e.localFilter(tpch.Q8(), "o")
	if err != nil {
		return err
	}
	scan := func(ds *storage.Dataset) func() (int64, error) {
		return func() (int64, error) {
			src, err := engine.ScanSource(ctx, ds, "o", filter, nil)
			if err != nil {
				return 0, err
			}
			var sink countSink
			if err := engine.RunToSink(ctx, src, &sink); err != nil {
				return 0, err
			}
			if sink.n.Load() == 0 {
				return 0, errors.New("filter kept no rows")
			}
			return ds.RowCount(), nil
		}
	}
	e.row("engine.scan_filter_ns_per_row", 1, "engine.ScanSource+RunToSink", nil, scan(orders))
	// The same scan over page files through a cache an eighth of their size:
	// page read, CRC, decode, filter.
	pagedOrders, err := e.pagedCopy("orders", "orders", storage.NewPageCache(orders.ByteSize()/8))
	if err != nil {
		return err
	}
	defer pagedOrders.Paged().File().Close()
	e.row("engine.paged_scan_ns_per_row", 1, "engine.ScanSource+RunToSink(paged)", nil, scan(pagedOrders))

	ssRel, err := engine.ScanByName(ctx, "store_sales", "ss", nil, nil)
	if err != nil {
		return err
	}
	srRel, err := engine.ScanByName(ctx, "store_returns", "sr", nil, nil)
	if err != nil {
		return err
	}
	e.row("engine.repartition_ns_per_row", 1, "engine.Repartition", nil, func() (int64, error) {
		_, err := engine.Repartition(ctx, ssRel, factKeys.ss)
		return ssRel.RowCount(), err
	})
	// Build and probe alone: both sides are exchanged onto the join key
	// beforehand, which HashJoin detects and skips.
	ssPart, err := engine.Repartition(ctx, ssRel, factKeys.ss)
	if err != nil {
		return err
	}
	srPart, err := engine.Repartition(ctx, srRel, factKeys.sr)
	if err != nil {
		return err
	}
	joinRows := ssPart.RowCount() + srPart.RowCount()
	var joined *engine.Relation
	e.row("engine.hash_join_ns_per_row", 1, "engine.HashJoin", nil, func() (n int64, err error) {
		joined, err = engine.HashJoin(ctx, ssPart, srPart, factKeys.ss, factKeys.sr, false)
		return joinRows, err
	})
	// The same join with an eighth of the build side as join memory and a
	// real spill device.
	var peakFrac float64
	var spilled int64
	e.row("engine.spill_join_ns_per_row", 1, "engine.HashJoin(spilling)", nil, func() (int64, error) {
		sctx, done := e.spillContext(srPart.ByteSize() / benchNodes / 8)
		defer done()
		out, err := engine.HashJoin(sctx, ssPart, srPart, factKeys.ss, factKeys.sr, false)
		if err != nil {
			return 0, err
		}
		if out.RowCount() != joined.RowCount() {
			return 0, fmt.Errorf("spilling join returned %d rows, resident %d", out.RowCount(), joined.RowCount())
		}
		spilled = sctx.Acct.Snapshot().SpillBytes
		peakFrac = float64(sctx.Grant.Peak()) / float64(sctx.Cluster.Governor().Capacity())
		return joinRows, nil
	})
	if e.err == nil && spilled == 0 {
		return errors.New("engine.HashJoin(spilling) spilled nothing at an eighth of the build side")
	}
	e.out["cluster.peak_grant_frac"] = peakFrac

	d1, err := e.filteredDates()
	if err != nil {
		return err
	}
	e.row("engine.broadcast_join_ns_per_row", 1, "engine.BroadcastJoin", nil, func() (int64, error) {
		_, err := engine.BroadcastJoin(ctx, ssRel, d1, []string{"ss.ss_sold_date_sk"}, []string{"d1.d_date_sk"}, false)
		return ssRel.RowCount() + d1.RowCount(), err
	})
	// Q9's seek path: filtered parts probing lineitem's l_partkey index.
	parts, err := e.seekOuter()
	if err != nil {
		return err
	}
	inl := func(inner *storage.Dataset) func() (int64, error) {
		return func() (int64, error) {
			diff, err := acctDiff(ctx, func() error {
				_, err := engine.IndexNLJoin(ctx, parts, inner, "l", seekKeys.outer, seekKeys.inner, nil)
				return err
			})
			return diff.IndexLookups, err
		}
	}
	e.row("engine.inl_join_us_per_lookup", 1e-3, "engine.IndexNLJoin", nil, inl(e.dataset("lineitem")))
	pagedLI, err := e.pagedLineitem()
	if err != nil {
		return err
	}
	e.row("engine.inl_join_paged_us_per_lookup", 1e-3, "engine.IndexNLJoin(paged)", nil, inl(pagedLI))

	stat := map[string]bool{
		sqlpp.FlattenName("ss", "ss_customer_sk"): true,
		sqlpp.FlattenName("ss", "ss_item_sk"):     true,
	}
	e.row("engine.materialize_ns_per_row", 1, "engine.Materialize", nil, func() (int64, error) {
		_, _, err := engine.Materialize(ctx, ssRel, ctx.TempName("mat"), stat)
		return ssRel.RowCount(), err
	})
	// The coordinator's finishing clauses over a full fact table.
	g, err := e.analyze(`SELECT ss.ss_store_sk, count(ss.ss_quantity) AS sales, avg(ss.ss_quantity) AS quantity
FROM store_sales ss GROUP BY ss.ss_store_sk ORDER BY ss.ss_store_sk LIMIT 100`)
	if err != nil {
		return err
	}
	e.row("engine.finish_ms", 1e-6, "engine.Finish", nil, func() (int64, error) {
		res, err := engine.Finish(ctx, g.Query, ssRel)
		if err == nil && len(res.Rows) == 0 {
			err = errors.New("no groups")
		}
		return 1, err
	})
	return nil
}
