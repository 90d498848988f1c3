package engine

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// The allocation guard of the resident probe path: a projected scan hands
// the probe stored rows and a column map, so a probe row costs a key read
// and only a match is copied — once, into its output tuple. The scan once
// gathered every projected row into a fresh arena tuple first (five values,
// 160 bytes, per probed row whether or not it matched), which showed only in
// the 20-second benchmark; these bounds fail `go test` instead.

const (
	probeAllocRows  = 64000 // 16 chunks of 1000 rows in each of 4 partitions
	probeAllocChunk = 1000
	probeAllocKeys  = 500
)

var probeAllocProject = []string{"c6", "fk", "id", "c4", "c7"}

// probeAllocFixture registers a fact table of eight columns, one a string,
// and two dimension relations over fk's domain: one holding every key once,
// one holding only keys no fact row carries.
func probeAllocFixture(tb testing.TB) (ctx *Context, all, none *Relation) {
	tb.Helper()
	schema := &types.Schema{}
	for c := 0; c < 8; c++ {
		kind := types.KindInt
		switch {
		case c == 7:
			kind = types.KindString
		case c >= 5:
			kind = types.KindFloat
		}
		schema.Fields = append(schema.Fields, types.Field{Name: fmt.Sprintf("c%d", c), Kind: kind})
	}
	schema.Fields[0].Name, schema.Fields[1].Name = "id", "fk"
	rows := make([]types.Tuple, probeAllocRows)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i * 7919 % probeAllocKeys)), types.Int(int64(i % 50)),
			types.Int(int64(i + 3)), types.Int(int64(i + 4)), types.Float(float64(i) / 5), types.Float(float64(i) / 6),
			types.Str(fmt.Sprintf("value-%d", i%97)),
		}
	}
	ctx = testCtx(tb, 4)
	ctx.ChunkRows = probeAllocChunk
	registerTyped(tb, ctx, "fact", []string{"id"}, schema, rows)
	dim := func(name string, from int64) *Relation {
		keys := make([][]int64, probeAllocKeys)
		for i := range keys {
			keys[i] = []int64{from + int64(i), int64(i) * 10}
		}
		register(tb, ctx, name, []string{"k"}, []string{"k", "attr"}, keys)
		rel, err := ScanByName(ctx, name, "d", nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return rel
	}
	return ctx, dim("dim_all", 0), dim("dim_none", probeAllocKeys)
}

// countSink counts emitted rows and keeps none, so the measurement is the
// probe's own allocation.
type countSink struct{ rows atomic.Int64 }

func (s *countSink) Emit(_ int, rows []types.Tuple) error {
	s.rows.Add(int64(len(rows)))
	return nil
}

// broadcastProbeProjected streams fact, projected to five of its eight
// columns, through a broadcast join against build, and returns the output
// row count.
func broadcastProbeProjected(tb testing.TB, ctx *Context, build *Relation) int64 {
	tb.Helper()
	fact, _ := ctx.Catalog.Get("fact")
	src, err := ScanSource(ctx, fact, "f", nil, probeAllocProject)
	if err != nil {
		tb.Fatal(err)
	}
	var sink countSink
	mk := func(*types.Schema, []int) (Sink, error) { return &sink, nil }
	if err := BroadcastJoinStream(ctx, SourceOf(ctx, build), src, []string{"d.k"}, []string{"f.fk"}, true, mk); err != nil {
		tb.Fatal(err)
	}
	return sink.rows.Load()
}

func TestBroadcastProbeAllocationBounds(t *testing.T) {
	ctx, all, none := probeAllocFixture(t)
	// Nothing matches: every probe row is hashed, looked up and dropped. What
	// is left is per-partition scratch (hash buffers, column vectors, the
	// table), a few bytes a row; a gathered copy was 160.
	perProbed, _ := allocBytesPer(func() int64 {
		if out := broadcastProbeProjected(t, ctx, none); out != 0 {
			t.Fatalf("disjoint build side produced %d rows", out)
		}
		return probeAllocRows
	})
	if perProbed > 16 {
		t.Errorf("probe that matches nothing allocates %.1f bytes per probed row, want <= 16: rows are being copied before the join has kept them", perProbed)
	}
	// Everything matches once: an output row is its seven-value tuple (two
	// build columns, five projected probe columns: 224 bytes) plus arena slack
	// at the tail of each partition — and nothing for the probe row itself. A
	// gathered copy on top was 384.
	perOutput, outputs := allocBytesPer(func() int64 { return broadcastProbeProjected(t, ctx, all) })
	if outputs != probeAllocRows {
		t.Fatalf("full build side produced %d rows, want %d", outputs, probeAllocRows)
	}
	outBytes := float64((all.Schema.Len() + len(probeAllocProject)) * 32)
	if perOutput > outBytes+64 {
		t.Errorf("probe that matches everything allocates %.0f bytes per output row, want <= %.0f (one output tuple): probe rows are being copied twice", perOutput, outBytes+64)
	}
	t.Logf("%.1f bytes per probed row with no match, %.0f bytes per output row with every row matching", perProbed, perOutput)
}

// The join filter's scratch — its marks, the survivors' selection, the
// narrowed chunk — belongs to the probe worker (or the scatter's producer) and
// is reused chunk to chunk: once warm, a chunk the filter narrows or empties
// costs no allocation on either path it reads keys by. The probe keys here
// miss the build side: some fall outside its range, some are NULL, and the
// rest lie inside it and reach the table only when their bit collides.
func TestKeyFilterScratchAllocatesNothing(t *testing.T) {
	ctx := testCtx(t, 1)
	build := make([]types.Tuple, 100)
	for i := range build {
		build[i] = types.Tuple{types.Int(int64(i) * 10)}
	}
	ht := buildTable(build, types.HashKeysInto(build, []int{0}, nil), []int{0})
	f := newKeyFilter([][]types.Tuple{build}, []int{0})
	rows := make([]types.Tuple, probeAllocChunk)
	for i := range rows {
		switch {
		case i%10 == 0:
			rows[i] = types.Tuple{types.Int(int64(-i - 1))} // below the range
		case i%7 == 0:
			rows[i] = types.Tuple{types.Null()}
		default:
			rows[i] = types.Tuple{types.Int(int64(i))}
		}
	}
	cols := types.NewColCache(types.NewSchema(types.Field{Name: "k", Kind: types.KindInt}))
	cols.SetWindow(rows)
	var sel, below []int32 // every other row; only the rows below the range
	for r := 1; r < len(rows); r += 2 {
		sel = append(sel, int32(r))
	}
	for r := 0; r < len(rows); r += 10 {
		below = append(below, int32(r))
	}
	for _, c := range []struct {
		name    string
		c       Chunk
		empties bool
	}{
		{"vector", Chunk{Rows: rows, Cols: cols}, false},
		{"vector-sel", Chunk{Rows: rows, Sel: sel, Cols: cols}, false},
		{"vector-emptied", Chunk{Rows: rows, Sel: below, Cols: cols}, true},
		{"row", Chunk{Rows: rows}, false},
		{"row-sel", Chunk{Rows: rows, Sel: sel}, false},
		{"row-emptied", Chunk{Rows: rows, Sel: below}, true},
	} {
		var sink countSink
		w := newProbeState(ctx, 0, ht, f, []int{0}, true, &sink)
		keep := f.mark(&c.c, 0, nil)
		survivors := 0
		for _, ok := range keep {
			if ok {
				survivors++
			}
		}
		if c.empties != (survivors == 0) || survivors == len(keep) {
			t.Fatalf("%s: %d of %d rows pass; the case is mislabeled", c.name, survivors, len(keep))
		}
		consume := func() {
			if err := w.consume(&c.c); err != nil {
				t.Fatal(err)
			}
		}
		consume()
		if allocs := testing.AllocsPerRun(20, consume); allocs != 0 {
			t.Errorf("%s: the probe loop allocates %.1f times per filtered chunk once warm", c.name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { keep = f.mark(&c.c, 0, keep) }); allocs != 0 {
			t.Errorf("%s: the filter's marks allocate %.1f times per chunk once warm", c.name, allocs)
		}
		if out := sink.rows.Load(); out != 0 {
			t.Errorf("%s: %d output rows from keys the build side never saw", c.name, out)
		}
	}
}

// spillingProbeProjected streams fact, projected to five of its eight
// columns, through a hash join whose build side really spills: an eighth of
// it fits a node, so most probe rows go to a run file and come back.
func spillingProbeProjected(tb testing.TB, ctx *Context, build *Relation) int64 {
	tb.Helper()
	ctx.Cluster.SetMemoryPerNodeBytes(build.ByteSize() / int64(8*len(build.Parts)))
	ctx.Spill = storage.NewSpillManager(tb.TempDir(), "probealloc_")
	ctx.Grant = ctx.Cluster.Governor().Grant()
	defer ctx.Grant.Close()
	fact, _ := ctx.Catalog.Get("fact")
	src, err := ScanSource(ctx, fact, "f", nil, probeAllocProject)
	if err != nil {
		tb.Fatal(err)
	}
	var sink countSink
	mk := func(*types.Schema, []int) (Sink, error) { return &sink, nil }
	if err := HashJoinStream(ctx, SourceOf(ctx, build), src, []string{"d.k"}, []string{"f.fk"}, true, mk); err != nil {
		tb.Fatal(err)
	}
	if ctx.Accounting().SpillRows.Load() == 0 {
		tb.Fatal("budget did not force spilling; measurement is vacuous")
	}
	if err := ctx.Spill.Sweep(); err != nil {
		tb.Fatal(err)
	}
	return sink.rows.Load()
}

// A probe row of the spilling join costs what its path costs: nothing beyond
// a key read when its sub-partition is resident, and one encode into the run
// writer's pooled frame plus one decode into a reused slab (and its string
// payload) on read-back when it spilled — a projected row on its way to a run
// is narrowed through a scratch tuple, never into an arena. The rest is per
// run file, not per row. When the join flattened every chunk into rows first,
// each probe row paid a gathered copy (five values, 160 bytes) on top,
// resident or not: 713 bytes a probe row on this fixture; 578 with a heap
// tuple per row read back and a block buffer per run; 58 with neither
// (TestSpillAllocationBounds holds that line).
func TestSpillingProbeAllocationBound(t *testing.T) {
	ctx, _, none := probeAllocFixture(t)
	perProbed, _ := allocBytesPer(func() int64 {
		if out := spillingProbeProjected(t, ctx, none); out != 0 {
			t.Fatalf("disjoint build side produced %d rows", out)
		}
		return probeAllocRows
	})
	if perProbed > 600 {
		t.Errorf("spilling join allocates %.0f bytes per probe row, want <= 600: probe rows are being copied before their sub-partition is known to have spilled", perProbed)
	}
	t.Logf("%.0f bytes per probe row", perProbed)
}

// A scan's window scratch — the reader with its column vectors, the selection
// buffer — follows the cursors that are open, not the partitions: a cursor
// hands it back at the end of its partition, the next Open takes it over, and
// two cursors open at once never share one.
func TestScanScratchIsRecycled(t *testing.T) {
	ctx, _, _ := probeAllocFixture(t)
	fact, _ := ctx.Catalog.Get("fact")
	src, err := ScanSource(ctx, fact, "f", nil, probeAllocProject)
	if err != nil {
		t.Fatal(err)
	}
	s := src.(*scanSource)
	open := func(p int) *scanCursor {
		cur, err := src.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		return cur.(*scanCursor)
	}
	drain := func(p int, cur *scanCursor) {
		rows := 0
		for {
			c, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows += c.Live()
		}
		if rows != len(fact.Parts[p]) {
			t.Errorf("partition %d: scanned %d rows, stored %d", p, rows, len(fact.Parts[p]))
		}
		// The scratch is back with the source; a late Next stays at the end
		// and cannot read what the scratch's next borrower is scanning.
		if _, err := cur.Next(); err != io.EOF || cur.scanScratch != nil {
			t.Errorf("partition %d: Next after the end returned %v, scratch still held: %v", p, err, cur.scanScratch != nil)
		}
	}
	a, b := open(0), open(1)
	if a.scanScratch == b.scanScratch || a.r == b.r {
		t.Fatal("two open cursors share one scratch")
	}
	sa, sb := a.scanScratch, b.scanScratch
	drain(0, a)
	drain(1, b)
	for p := 2; p < src.Parts(); p++ {
		cur := open(p)
		if cur.scanScratch != sa && cur.scanScratch != sb {
			t.Errorf("partition %d opened with fresh scratch while two sets sat idle", p)
		}
		drain(p, cur)
	}
	if len(s.idle) != 2 {
		t.Errorf("%d scratch sets after %d partitions read at most two at a time, want 2", len(s.idle), src.Parts())
	}
}

// A push-down stage keeps every row that passes its filter: the scan narrows
// it (one five-value tuple, 160 bytes, within an eighth of arena slack) and
// the sink holds its header twice on the way to an exact partition slice (48
// bytes): 237 here. A doubling arena and an append-grown partition slice made
// it 277 on this fixture, and up to half as much again where a partition's
// output had just spilled into a fresh chunk.
func TestPushDownSinkAllocationBound(t *testing.T) {
	ctx, _, _ := probeAllocFixture(t)
	fact, _ := ctx.Catalog.Get("fact")
	perKept, kept := allocBytesPer(func() int64 {
		src, err := ScanSource(ctx, fact, "f", nil, probeAllocProject)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewStreamSink(ctx, src.Schema(), src.Parts(), "tmp_pushdown", nil, nil)
		if err := RunToSink(ctx, src, sink); err != nil {
			t.Fatal(err)
		}
		ds, _, err := sink.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return ds.RowCount()
	})
	if kept != probeAllocRows {
		t.Fatalf("sink kept %d rows, want %d", kept, probeAllocRows)
	}
	if limit := 160.0*(1+1.0/8) + 48 + 16; perKept > limit {
		t.Errorf("push-down stage allocates %.0f bytes per kept row, want <= %.0f", perKept, limit)
	}
	t.Logf("%.0f bytes per kept row", perKept)
}

func BenchmarkBroadcastProbeProjected(b *testing.B) {
	ctx, all, none := probeAllocFixture(b)
	for _, bc := range []struct {
		name  string
		build *Relation
	}{{"match-none", none}, {"match-all", all}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				broadcastProbeProjected(b, ctx, bc.build)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/probeAllocRows, "ns/probed-row")
		})
	}
}
