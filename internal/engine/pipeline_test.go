package engine

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dynopt/internal/expr"
	"dynopt/internal/faults/leakcheck"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// testChunkRows, when nonzero, is applied by testCtx to Context.ChunkRows —
// the same field Config.ChunkRows feeds through Open — so chunk-boundary
// tests exercise the real configuration path rather than a test backdoor.
var testChunkRows int

// withChunkCap shrinks the pipeline chunk size for the duration of a test
// so chunk boundaries (size-1 chunks, rows exactly at capacity) are
// exercised on small inputs.
func withChunkCap(t *testing.T, n int) {
	t.Helper()
	old := testChunkRows
	testChunkRows = n
	t.Cleanup(func() { testChunkRows = old })
}

// relRows flattens a relation partition-by-partition for exact (order
// included) comparison.
func relRows(rel *Relation) []string {
	var out []string
	for p, part := range rel.Parts {
		for _, t := range part {
			out = append(out, fmt.Sprintf("p%d:%s", p, t))
		}
	}
	return out
}

// factDim are the two sides most cases join: fact rows (id, fk, pay) bound
// to f, dim rows (id, attr) bound to d.
func factDim(algo refAlgo, factKey string, buildLeft bool) joinCase {
	return joinCase{algo: algo, buildLeft: buildLeft,
		left:  refSide{ds: "fact", alias: "f", keys: []string{factKey}},
		right: refSide{ds: "dim", alias: "d", keys: []string{"id"}},
	}
}

// TestStreamMatchesBatchChunkBoundaries sweeps the joins across chunk
// capacities that land rows exactly at, below, and far beyond chunk
// boundaries, including empty partitions (more partitions than rows) and
// selective filters that empty entire scan windows. (Named for the batch
// operators whose recorded answers, with the model, are what it holds the
// pipeline to.)
func TestStreamMatchesBatchChunkBoundaries(t *testing.T) {
	leakcheck.Check(t)
	for _, cc := range []int{1, 3, 25, 1024} {
		t.Run(fmt.Sprintf("chunkCap=%d", cc), func(t *testing.T) {
			withChunkCap(t, cc)
			// 100 rows over 4 nodes: partitions hold ~25 rows, so cc=25 puts
			// rows exactly at capacity; cc=1 forces a chunk per row. The dim
			// side holds 3 rows over 4 nodes, leaving at least one partition
			// empty.
			load := func(ctx *Context) {
				register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 3))
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
			}
			t.Run("hash-scattered", func(t *testing.T) {
				// Probe (fact) is partitioned on id but joined on fk: the
				// scatter exchange runs. The dim (right) side builds.
				runAgainstReference(t, 4, load, factDim(refHash, "fk", false))
			})
			t.Run("hash-prepartitioned", func(t *testing.T) {
				// Probe pre-partitioned on the join key: the exchange is
				// skipped and the local pipeline runs.
				runAgainstReference(t, 4, load, factDim(refHash, "id", false))
			})
			t.Run("broadcast", func(t *testing.T) {
				runAgainstReference(t, 4, load, factDim(refBroadcast, "fk", false))
			})
			t.Run("indexnl", func(t *testing.T) {
				loadIdx := func(ctx *Context) {
					load(ctx)
					ds, _ := ctx.Catalog.Get("fact")
					if _, err := storage.BuildIndex(ds, "fk"); err != nil {
						t.Fatal(err)
					}
				}
				runAgainstReference(t, 4, loadIdx, joinCase{algo: refIndexNL,
					left:  refSide{ds: "dim", alias: "d", keys: []string{"id"}},
					right: refSide{ds: "fact", alias: "f", keys: []string{"fk"}},
				})
			})
			t.Run("filtered-scan-join", func(t *testing.T) {
				// Selective filter empties most scan windows; the projection
				// rides along as the chunks' column map.
				c := factDim(refHash, "fk", false)
				c.left.project = []string{"id", "fk"}
				c.left.filter = &expr.Compare{Op: expr.CmpGe,
					L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(900)}}
				c.left.keep = func(row types.Tuple) bool { return row[2].I() >= 900 }
				runAgainstReference(t, 4, load, c)
			})
		})
	}
}

// TestStreamMatchesBatchEmptyInputs: zero-row probe and build sides flow
// through the pipeline without emitting chunks.
func TestStreamMatchesBatchEmptyInputs(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 2)
	load := func(ctx *Context) {
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, nil)
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}})
	}
	runAgainstReference(t, 4, load, factDim(refHash, "fk", false))
}

// registerTyped registers a dataset with an explicit schema, for tests that
// need non-int columns alongside the int helpers.
func registerTyped(t testing.TB, ctx *Context, name string, pk []string, schema *types.Schema, rows []types.Tuple) *storage.Dataset {
	t.Helper()
	ds, st, err := storage.Build(name, schema, pk, rows, ctx.Cluster.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Catalog.Register(ds, st); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStreamMatchesBatchSelChunks pins the selection-vector chunk form
// end-to-end: a filter without projection emits stored windows with a Sel
// sidecar, which must flow through the scatter exchange, the local join
// pipeline (joinInto over a selection), and columnar key hashing with the
// rows of the dense model and the recorded counters. Covers the vectorized
// int and string kernels, NULLs in filtered columns, and the scalar fallback
// for UDF predicates.
func TestStreamMatchesBatchSelChunks(t *testing.T) {
	leakcheck.Check(t)
	strRows := func(n int) []types.Tuple {
		names := []string{"ash", "mint", "zinc", "kelp", "moss", "alder"}
		rows := make([]types.Tuple, n)
		for i := range rows {
			nm := types.Str(names[i%len(names)])
			if i%11 == 0 {
				nm = types.Null() // NULL never passes the filter
			}
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 3)), nm}
		}
		return rows
	}
	strSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "fk", Kind: types.KindInt},
		types.Field{Name: "name", Kind: types.KindString},
	)
	// filtered joins fact (filtered, unprojected: sel chunks) with dim on
	// factKey = d.id, dim building.
	filtered := func(factKey string, filter expr.Expr, keep func(types.Tuple) bool) joinCase {
		c := factDim(refHash, factKey, false)
		c.left.filter, c.left.keep = filter, keep
		return c
	}
	col := func(name string) expr.Expr { return &expr.Column{Qualifier: "f", Name: name} }
	for _, cc := range []int{3, 25} {
		t.Run(fmt.Sprintf("chunkCap=%d", cc), func(t *testing.T) {
			withChunkCap(t, cc)
			loadInt := func(ctx *Context) {
				register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 3))
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
			}
			t.Run("int-filter-scattered", func(t *testing.T) {
				// Partial-pass windows emit sel chunks into the scatter
				// exchange: columnar hashing walks Sel.
				runAgainstReference(t, 4, loadInt, filtered("fk",
					&expr.Compare{Op: expr.CmpLt, L: col("pay"), R: &expr.Literal{Val: types.Int(500)}},
					func(row types.Tuple) bool { return row[2].I() < 500 }))
			})
			t.Run("int-filter-prepartitioned", func(t *testing.T) {
				// Probe pre-partitioned on the join key: sel chunks skip the
				// exchange and hit the probe loop directly.
				runAgainstReference(t, 4, loadInt, filtered("id",
					&expr.Compare{Op: expr.CmpGe, L: col("pay"), R: &expr.Literal{Val: types.Int(300)}},
					func(row types.Tuple) bool { return row[2].I() >= 300 }))
			})
			t.Run("string-filter", func(t *testing.T) {
				// String comparison kernel over a column with NULLs.
				load := func(ctx *Context) {
					registerTyped(t, ctx, "fact", []string{"id"}, strSchema, strRows(90))
					register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
				}
				runAgainstReference(t, 4, load, filtered("fk",
					&expr.Compare{Op: expr.CmpGe, L: col("name"), R: &expr.Literal{Val: types.Str("m")}},
					func(row types.Tuple) bool { return !row[2].IsNull() && row[2].S >= "m" }))
			})
			t.Run("udf-filter", func(t *testing.T) {
				// A Call predicate has no kernel: the cursor filters with the
				// scalar Compiled but still emits sel chunks.
				load := func(ctx *Context) {
					loadInt(ctx)
					if err := ctx.UDFs.Register(expr.UDF{Name: "selmod", Fn: func(args []types.Value) (types.Value, error) {
						if args[0].IsNull() {
							return types.Null(), nil
						}
						return types.Int(args[0].I() % 7), nil
					}}); err != nil {
						t.Fatal(err)
					}
				}
				runAgainstReference(t, 4, load, filtered("fk",
					&expr.Compare{Op: expr.CmpNe,
						L: &expr.Call{Name: "selmod", Args: []expr.Expr{col("id")}},
						R: &expr.Literal{Val: types.Int(0)}},
					func(row types.Tuple) bool { return row[0].I()%7 != 0 }))
			})
		})
	}
}

// TestStreamRowBytesMeteringMatchesBatch holds Chunk.RowBytes to counters
// recorded from the batch exchange, which walked every row it metered: a
// projected fact table whose every projected column is fixed-width (the scan
// stamps RowBytes and no consumer reads a row to size it) and the same table
// with NULLs in a projected column (RowBytes is 0 and every consumer walks),
// through each place that sizes a chunk's live rows — the scatter's route,
// the local probe's size fill, the build side's collect, the replicated
// outer's sum — under a memory budget small enough that the simulated spill
// model reads the probe sizes too.
func TestStreamRowBytesMeteringMatchesBatch(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 16)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "fk", Kind: types.KindInt},
		types.Field{Name: "pay", Kind: types.KindInt},
		types.Field{Name: "note", Kind: types.KindString},
	)
	project := []string{"pay", "id", "fk"} // drops the one variable-width column
	dim := make([][]int64, 40)
	for i := range dim {
		dim[i] = []int64{int64(i), int64(i * 3)}
	}
	// projected joins fact (projected) with dim on factKey = d.id.
	projected := func(algo refAlgo, factKey string, buildFact bool) joinCase {
		c := factDim(algo, factKey, buildFact)
		c.left.project = project
		return c
	}
	for _, tc := range []struct {
		name      string
		nullEvery int
	}{{"fixed-width", 0}, {"null-in-projection", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			load := func(ctx *Context) {
				rows := make([]types.Tuple, 400)
				for i := range rows {
					pay := types.Int(int64(i * 10))
					if tc.nullEvery > 0 && i%tc.nullEvery == 0 {
						pay = types.Null()
					}
					rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 40)), pay, types.Str("note"[:i%5])}
				}
				fact := registerTyped(t, ctx, "fact", []string{"id"}, schema, rows)
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
				ctx.Cluster.SetMemoryPerNodeBytes(64)
				// The case is what it says: the scan knows the projected width
				// of every partition exactly when no projected value is NULL.
				want := int64(27)
				if tc.nullEvery > 0 {
					want = 0
				}
				for p := range fact.Parts {
					if rb := fact.RowBytes(p, []int{2, 0, 1}); rb != want {
						t.Fatalf("partition %d: RowBytes over the projection = %d, want %d", p, rb, want)
					}
				}
			}
			t.Run("scattered-probe", func(t *testing.T) {
				if snap := runAgainstReference(t, 4, load, projected(refHash, "fk", false)); snap.ShuffleBytes == 0 || snap.SpillBytes == 0 {
					t.Fatalf("vacuous: nothing shuffled or nothing spilled: %+v", snap)
				}
			})
			t.Run("local-probe", func(t *testing.T) {
				if snap := runAgainstReference(t, 4, load, projected(refHash, "id", false)); snap.ShuffleBytes != 0 || snap.SpillBytes == 0 {
					t.Fatalf("vacuous: the probe moved or nothing spilled: %+v", snap)
				}
			})
			t.Run("collected-build", func(t *testing.T) {
				if snap := runAgainstReference(t, 4, load, projected(refHash, "fk", true)); snap.ShuffleBytes == 0 || snap.SpillBytes == 0 {
					t.Fatalf("vacuous: nothing shuffled or nothing spilled: %+v", snap)
				}
			})
			t.Run("broadcast-probe", func(t *testing.T) {
				if snap := runAgainstReference(t, 4, load, projected(refBroadcast, "fk", false)); snap.SpillBytes == 0 {
					t.Fatalf("vacuous: nothing spilled: %+v", snap)
				}
			})
			t.Run("replicated-outer", func(t *testing.T) {
				loadIdx := func(ctx *Context) {
					load(ctx)
					ds, _ := ctx.Catalog.Get("dim")
					if _, err := storage.BuildIndex(ds, "id"); err != nil {
						t.Fatal(err)
					}
				}
				if snap := runAgainstReference(t, 4, loadIdx, projected(refIndexNL, "fk", false)); snap.BroadcastBytes == 0 {
					t.Fatalf("vacuous: no outer bytes replicated: %+v", snap)
				}
			})
		})
	}
}

// TestScanChunkRowBytes pins Chunk.RowBytes at its one producer: every chunk
// of a resident base scan carries the partition's width profile folded
// through the scan's projection — non-zero exactly when every projected
// value of the partition has one encoded size, and then equal to
// EncodedSizeCols(Proj) of every live row — while temps and paged scans,
// which have no profile, leave it 0.
func TestScanChunkRowBytes(t *testing.T) {
	withChunkCap(t, 16)
	ctx := testCtx(t, 3)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "f", Kind: types.KindFloat},
		types.Field{Name: "holey", Kind: types.KindInt},
		types.Field{Name: "tag", Kind: types.KindString},
		types.Field{Name: "name", Kind: types.KindString},
	)
	rows := make([]types.Tuple, 300)
	for i := range rows {
		holey := types.Int(int64(i))
		if i%10 == 7 {
			holey = types.Null()
		}
		rows[i] = types.Tuple{types.Int(int64(i)), types.Float(float64(i) / 3), holey, types.Str("tag"), types.Str("name"[:1+i%4])}
	}
	base := registerTyped(t, ctx, "t", []string{"id"}, schema, rows)
	filter := &expr.Compare{Op: expr.CmpLt,
		L: &expr.Column{Qualifier: "a", Name: "id"}, R: &expr.Literal{Val: types.Int(150)}}

	// scan checks the contract on every chunk of the scan and requires each
	// to carry RowBytes = want.
	scan := func(ctx *Context, ds *storage.Dataset, filter expr.Expr, project []string, want int64) {
		t.Helper()
		src, err := ScanSource(ctx, ds, "a", filter, project)
		if err != nil {
			t.Fatal(err)
		}
		chunks := 0
		for p := 0; p < src.Parts(); p++ {
			cur, err := src.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			for {
				c, err := cur.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				chunks++
				if c.RowBytes != want {
					t.Fatalf("%s project %v (filtered: %v): a chunk of partition %d carries RowBytes = %d, want %d",
						ds.Name, project, filter != nil, p, c.RowBytes, want)
				}
				if c.RowBytes == 0 {
					continue
				}
				for k := 0; k < c.Live(); k++ {
					r := k
					if c.Sel != nil {
						r = int(c.Sel[k])
					}
					got := int64(c.Rows[r].EncodedSizeCols(c.Proj)) //dynopt:size-ok the reference walk RowBytes stands in for
					if got != c.RowBytes {
						t.Fatalf("project %v: live row %s weighs %d, chunk says RowBytes = %d", project, c.Rows[r], got, c.RowBytes)
					}
				}
			}
		}
		if chunks == 0 {
			t.Fatalf("%s project %v: the scan produced no chunk", ds.Name, project)
		}
	}
	for _, tc := range []struct {
		project []string
		want    int64
	}{
		{[]string{"f", "id"}, 18},
		{[]string{"tag", "id"}, 13}, // strings of one length are a fixed width too
		{[]string{"id", "holey"}, 0},
		{[]string{"name"}, 0},
		{nil, 0},
	} {
		scan(ctx, base, nil, tc.project, tc.want)
		scan(ctx, base, filter, tc.project, tc.want)
	}

	rel, err := Scan(ctx, base, "a", nil, []string{"f", "id"})
	if err != nil {
		t.Fatal(err)
	}
	temp, _, err := Materialize(ctx, rel, "tmp_fixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	scan(ctx, temp, nil, nil, 0)
	pctx := pagedCopy(t, ctx, "t", 64, 0)
	pds, _ := pctx.Catalog.Get("t")
	scan(pctx, pds, nil, []string{"f", "id"}, 0)
}

// loadSpilling registers fact (4000 rows) and dim (64 rows) on two nodes
// under a real spill device and a budget of 1/8 of the per-node fact bytes,
// so a join that builds on fact must evict.
func loadSpilling(t *testing.T, prefix string) func(ctx *Context) {
	return func(ctx *Context) {
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(4000, 64))
		dim := make([][]int64, 64)
		for i := range dim {
			dim[i] = []int64{int64(i), int64(i * 3)}
		}
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
		fact, _ := ctx.Catalog.Get("fact")
		ctx.Cluster.SetMemoryPerNodeBytes(fact.ByteSize() / int64(2*8))
		ctx.Spill = storage.NewSpillManager(t.TempDir(), prefix)
		ctx.Grant = ctx.Cluster.Governor().Grant()
		t.Cleanup(ctx.Grant.Close)
	}
}

// TestPipelineSpillSelChunks drives sel chunks into the spilling DHHJ probe:
// a filtered, unprojected probe side streams Rows+Sel chunks, and the probe
// phase must read live rows and their hashes through the selection both when
// it appends a row to a probe run and when it narrows the selection for the
// probe loop.
func TestPipelineSpillSelChunks(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 7)
	c := factDim(refHash, "fk", true)
	c.unordered = true
	c.right.filter = &expr.Compare{Op: expr.CmpGe,
		L: &expr.Column{Qualifier: "d", Name: "attr"}, R: &expr.Literal{Val: types.Int(60)}}
	c.right.keep = func(row types.Tuple) bool { return row[1].I() >= 60 }
	if snap := runAgainstReference(t, 2, loadSpilling(t, "selspill_"), c); snap.SpillBytes == 0 {
		t.Fatal("budget did not force spilling; test is vacuous")
	}
}

// TestPipelineSpillMatchesBatch runs the real-spill DHHJ under a budget
// forcing eviction — fact (left) builds and spills, dim probes — through
// both entry points: the model's rows, and the batch join's recorded order
// and spill metering, whether the probe is a relation read in place or
// arrives chunk-by-chunk through the scatter.
func TestPipelineSpillMatchesBatch(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 7)
	c := factDim(refHash, "fk", true)
	c.unordered = true
	if snap := runAgainstReference(t, 2, loadSpilling(t, "pipe_"), c); snap.SpillBytes == 0 {
		t.Fatal("budget did not force spilling; test is vacuous")
	}
}

// chunkSpy wraps a probe source whose chunks reach the spilling join as its
// cursors cut them (a probe already partitioned on the join keys), and sorts
// every chunk by where its live rows went: it lists the spill directory for
// the level-0 build runs of the chunk's partition — they are all sealed
// before the first probe chunk is pulled — and counts the chunks whose live
// rows all hash to spilled sub-partitions, and those where none do.
type chunkSpy struct {
	Source
	t         *testing.T
	spill     *storage.SpillManager
	key       int // the join key's offset in the source's schema
	all, none atomic.Int64
	selected  atomic.Int64 // chunks that carried a selection
}

func (s *chunkSpy) Open(p int) (Cursor, error) {
	cur, err := s.Source.Open(p)
	return &spyCursor{cur: cur, spy: s, p: p}, err
}

type spyCursor struct {
	cur Cursor
	spy *chunkSpy
	p   int
}

func (c *spyCursor) Next() (*Chunk, error) {
	ch, err := c.cur.Next()
	if err != nil {
		return ch, err
	}
	runs, err := filepath.Glob(filepath.Join(c.spy.spill.Dir(), fmt.Sprintf("run*_p%d_l0_s*_build", c.p)))
	if err != nil {
		c.spy.t.Error(err)
	}
	var spilled [spillFanout]bool
	for _, run := range runs {
		var seq, part, sub int
		if _, err := fmt.Sscanf(filepath.Base(run), "run%d_p%d_l0_s%d_build", &seq, &part, &sub); err != nil {
			c.spy.t.Errorf("run file %s: %v", run, err)
		}
		spilled[sub] = true
	}
	if ch.Proj == nil {
		c.spy.t.Errorf("partition %d: a probe chunk arrived without a projection map", c.p)
		return ch, nil
	}
	if ch.Sel != nil {
		c.spy.selected.Add(1)
	}
	var toRun, toTable int
	for k := 0; k < ch.Live(); k++ {
		key := types.Tuple{ch.Rows[ch.liveAt(k)][ch.Proj[c.spy.key]]}
		if spilled[spillSub(key.HashKeys([]int{0}), 0)] {
			toRun++
		} else {
			toTable++
		}
	}
	switch {
	case toRun > 0 && toTable == 0:
		c.spy.all.Add(1)
	case toTable > 0 && toRun == 0:
		c.spy.none.Add(1)
	}
	return ch, nil
}

// TestPipelineSpillProjectedProbe feeds the spilling join a probe that is a
// filtered and projected scan — stored rows behind a selection and a column
// map — at an eighth of the build side per node, with chunks of 1, 7 and 1024
// rows. The build side is skewed so that one level-0 sub-partition holds
// eleven twelfths of it and is the one evicted, and the probe partitions are
// stored as a long run of rows for that sub-partition, a long run for the
// others, then both mixed: at every capacity some chunks go to probe runs
// whole, some go to the probe loop whole, and the rest are split between the
// two (chunkSpy counts them). The rows are the model's, as a multiset — a
// hybrid join emits resident sub-partitions before spilled ones — and, with
// the counters, the spilling join's of the commit before it took chunks
// (pipeline_golden.json: the same digest at all three capacities).
func TestPipelineSpillProjectedProbe(t *testing.T) {
	leakcheck.Check(t)
	const (
		nodes   = 2
		hot     = 5    // the level-0 sub-partition the build side piles into
		run     = 2048 // probe rows per partition in each single-class run
		mixed   = 700  // and in the mixed tail
		hotKeys = 20   // build keys per partition inside hot
		coldKey = 30   // and outside it
	)
	keyHash := func(k int64) uint64 { return types.Tuple{types.Int(k)}.HashKeys([]int{0}) }
	// dim rows (id, attr, grp, pad) in stored order; ids only grow, so each
	// is unique and a partition (id hash mod nodes) keeps this order.
	var dim [][]int64
	var keys [2][]int64 // hot, cold build keys: the first ids of each run
	next := int64(0)
	take := func(perPart int, want func(isHot bool) bool) {
		var got [nodes]int
		for ; got[0] < perPart || got[1] < perPart; next++ {
			h := keyHash(next)
			isHot := spillSub(h, 0) == hot
			if p := h % nodes; got[p] < perPart && want(isHot) {
				got[p]++
				class, quota := 1, coldKey
				if isHot {
					class, quota = 0, hotKeys
				}
				if len(keys[class]) < nodes*quota && got[p] <= quota {
					keys[class] = append(keys[class], next)
				}
				dim = append(dim, []int64{next, next * 3, int64(len(dim) % 10), int64(len(dim))})
			}
		}
	}
	take(run, func(isHot bool) bool { return isHot })
	take(run, func(isHot bool) bool { return !isHot })
	take(mixed, func(bool) bool { return true })
	fact := make([][]int64, 8000)
	for i := range fact {
		class := 0
		if i%12 == 0 {
			class = 1
		}
		fact[i] = []int64{int64(i), keys[class][i%len(keys[class])], int64(i * 10)}
	}
	c := joinCase{algo: refHash, buildLeft: true,
		left: refSide{ds: "fact", alias: "f", keys: []string{"fk"}},
		right: refSide{ds: "dim", alias: "d", keys: []string{"id"}, project: []string{"attr", "id"},
			filter: &expr.Compare{Op: expr.CmpLt, L: &expr.Column{Qualifier: "d", Name: "grp"}, R: &expr.Literal{Val: types.Int(7)}},
			keep:   func(row types.Tuple) bool { return row[2].I() < 7 }},
	}
	for _, chunkCap := range []int{1, 7, 1024} {
		t.Run(fmt.Sprintf("chunkCap=%d", chunkCap), func(t *testing.T) {
			withChunkCap(t, chunkCap)
			ctx := testCtx(t, nodes)
			register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, fact)
			register(t, ctx, "dim", []string{"id"}, []string{"id", "attr", "grp", "pad"}, dim)
			factDS, _ := ctx.Catalog.Get("fact")
			dimDS, _ := ctx.Catalog.Get("dim")
			ctx.Cluster.SetMemoryPerNodeBytes(factDS.ByteSize() / (nodes * 8))
			ctx.Spill = storage.NewSpillManager(t.TempDir(), "projspill_")
			ctx.Grant = ctx.Cluster.Governor().Grant()
			defer ctx.Grant.Close()

			build, err := ScanSource(ctx, factDS, "f", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := ScanSource(ctx, dimDS, "d", c.right.filter, c.right.project)
			if err != nil {
				t.Fatal(err)
			}
			spy := &chunkSpy{Source: probe, t: t, spill: ctx.Spill, key: 1}
			rel, err := collectJoin(nodes, func(mk SinkFactory) error {
				return HashJoinStream(ctx, build, spy, c.left.qualifiedKeys(), c.right.qualifiedKeys(), true, mk)
			})
			if err != nil {
				t.Fatal(err)
			}
			if spy.all.Load() == 0 || spy.none.Load() == 0 {
				t.Errorf("%d chunks went to probe runs whole and %d to the probe loop whole; the case needs both", spy.all.Load(), spy.none.Load())
			}
			// A window of one row either fails the filter or passes it whole, and a
			// full pass carries no selection.
			if chunkCap > 1 && spy.selected.Load() == 0 {
				t.Error("no probe chunk carried a selection")
			}
			snap := ctx.Cluster.Acct().Snapshot()
			if snap.SpillBytes == 0 || snap.SpillBytes != ctx.Spill.BytesWritten() {
				t.Errorf("SpillBytes = %d, the device wrote %d", snap.SpillBytes, ctx.Spill.BytesWritten())
			}
			if err := ctx.Spill.Sweep(); err != nil {
				t.Fatal(err)
			}
			if held := ctx.Grant.Used(); held != 0 {
				t.Errorf("the join returned holding %d granted bytes", held)
			}
			got := relRows(rel)
			checkGolden(t, "sources", goldenCell{Rows: digestRows(got), Counters: snap})
			parts, _, _ := c.expected(t, ctx)
			want := relRows(&Relation{Parts: parts})
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%d rows, the model has %d (or the same count and other rows)", len(got), len(want))
			}
		})
	}
}

// TestForEachPartBoundedWorkers pins the worker-pool contract: concurrency
// never exceeds GOMAXPROCS, partitions are claimed in index order
// (work-conserving — a freed worker immediately takes the next pending
// partition), and a skewed partition set still completes with every
// partition executed exactly once.
func TestForEachPartBoundedWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const nparts = 64
	var inFlight, peak atomic.Int64
	var started atomic.Int64
	ran := make([]atomic.Int64, nparts)
	starts := make([]int64, nparts) // start sequence per partition
	err := forEachPart(nparts, func(p int) error {
		cur := inFlight.Add(1)
		for {
			pk := peak.Load()
			if cur <= pk || peak.CompareAndSwap(pk, cur) {
				break
			}
		}
		starts[p] = started.Add(1)
		ran[p].Add(1)
		if p == 0 {
			time.Sleep(20 * time.Millisecond) // skew: one giant partition
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrency %d exceeds GOMAXPROCS=2", got)
	}
	for p := range ran {
		if ran[p].Load() != 1 {
			t.Errorf("partition %d ran %d times", p, ran[p].Load())
		}
	}
	// Work-conserving index order: partition p's start sequence can trail
	// its index by at most the pool size (workers claim indices from a
	// shared counter), so sequence numbers grow with partition index.
	for p := 1; p < nparts; p++ {
		if starts[p] < starts[p-1]-2 {
			t.Errorf("partition %d started at seq %d, before partition %d at %d", p, starts[p], p-1, starts[p-1])
		}
	}
}

// TestForEachPartSerialOnOneProc: a 64-partition layout on a 1-proc box
// runs serially in the calling goroutine, still completing every partition.
func TestForEachPartSerialOnOneProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var order []int
	err := forEachPart(64, func(p int) error {
		order = append(order, p) // no locking needed: serial path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 64 {
		t.Fatalf("ran %d partitions", len(order))
	}
	for p, got := range order {
		if got != p {
			t.Fatalf("serial path ran partition %d at position %d", got, p)
		}
	}
}
