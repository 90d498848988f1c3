package engine

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// The allocation guard of the paged access paths: on the page store a row is
// built only once something has selected it — an index fetch, or a scan's
// predicate. Both paths once decoded every row of every page they touched
// (the seek path, a whole page per fetched row), which showed only in the
// 20-second benchmark; these bounds fail `go test` instead.

const (
	allocRows     = 48000 // 12 pages of 1024 rows in each of 4 partitions
	allocKeys     = 2000  // 24 rows per index key, scattered over every page
	allocOuter    = 40    // outer keys → 960 fetched rows
	allocGrpRange = 50    // the scan filter keeps grp = 7: one row in 50
)

// pagedAllocFixture registers a lineitem-shaped table (sixteen columns, five
// of them strings) paged under a cache that holds all of it, so neither
// measured path allocates page buffers, and a secondary index on fk whose
// matches for any one key lie on different pages.
func pagedAllocFixture(tb testing.TB) *Context {
	tb.Helper()
	schema := &types.Schema{}
	for c := 0; c < 16; c++ {
		kind := types.KindInt
		switch {
		case c >= 11:
			kind = types.KindString
		case c >= 7:
			kind = types.KindFloat
		}
		schema.Fields = append(schema.Fields, types.Field{Name: fmt.Sprintf("c%d", c), Kind: kind})
	}
	schema.Fields[0].Name, schema.Fields[1].Name, schema.Fields[2].Name = "id", "fk", "grp"
	rows := make([]types.Tuple, allocRows)
	for i := range rows {
		t := make(types.Tuple, 16)
		t[0], t[1], t[2] = types.Int(int64(i)), types.Int(int64(i*7919%allocKeys)), types.Int(int64(i%allocGrpRange))
		for c := 3; c < 16; c++ {
			switch schema.Fields[c].Kind {
			case types.KindInt:
				t[c] = types.Int(int64(i + c))
			case types.KindFloat:
				t[c] = types.Float(float64(i) / float64(c))
			default:
				t[c] = types.Str(fmt.Sprintf("col%d-value-%d", c, i%97))
			}
		}
		rows[i] = t
	}
	ctx := testCtx(tb, 4)
	ctx.ChunkRows = 0
	wide := registerTyped(tb, ctx, "wide", []string{"id"}, schema, rows)
	if _, err := storage.BuildIndex(wide, "fk"); err != nil {
		tb.Fatal(err)
	}
	outer := make([][]int64, allocOuter)
	for i := range outer {
		outer[i] = []int64{int64(i), int64(i * 31 % allocKeys)}
	}
	pctx := pagedCopy(tb, ctx, "wide", 0, 2*wide.ByteSize())
	register(tb, pctx, "o", []string{"id"}, []string{"id", "k"}, outer)
	return pctx
}

// indexJoinPaged runs the broadcast outer through wide's fk index and
// returns the fetched (= output) row count.
func indexJoinPaged(tb testing.TB, ctx *Context) int64 {
	tb.Helper()
	outer, err := ScanByName(ctx, "o", "o", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	wide, _ := ctx.Catalog.Get("wide")
	out, err := IndexNLJoin(ctx, outer, wide, "w", []string{"o.k"}, []string{"fk"}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out.RowCount()
}

// filteredScanPaged streams wide under a one-in-fifty filter and a
// four-column projection and returns the surviving row count.
func filteredScanPaged(tb testing.TB, ctx *Context) int64 {
	tb.Helper()
	filter := &expr.Compare{Op: expr.CmpEq, L: &expr.Column{Qualifier: "w", Name: "grp"}, R: &expr.Literal{Val: types.Int(7)}}
	wide, _ := ctx.Catalog.Get("wide")
	src, err := ScanSource(ctx, wide, "w", filter, []string{"id", "fk", "c8", "c12"})
	if err != nil {
		tb.Fatal(err)
	}
	var rows int64
	for p := 0; p < src.Parts(); p++ {
		cur, err := src.Open(p)
		if err != nil {
			tb.Fatal(err)
		}
		for {
			c, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				tb.Fatal(err)
			}
			rows += int64(c.Live())
		}
	}
	return rows
}

// broadcastJoinPaged streams wide, unprojected, as the probe of a broadcast
// join against o on fk = k and returns the output row count.
func broadcastJoinPaged(tb testing.TB, ctx *Context) int64 {
	tb.Helper()
	outer, err := ScanByName(ctx, "o", "o", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	wide, _ := ctx.Catalog.Get("wide")
	probe, err := ScanSource(ctx, wide, "w", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var sink countSink
	mk := func(*types.Schema, []int) (Sink, error) { return &sink, nil }
	if err := BroadcastJoinStream(ctx, SourceOf(ctx, outer), probe, []string{"o.k"}, []string{"w.fk"}, true, mk); err != nil {
		tb.Fatal(err)
	}
	return sink.rows.Load()
}

// filterSurvivors counts wide's rows whose fk passes the join filter built
// from o's keys.
func filterSurvivors(tb testing.TB, ctx *Context) int64 {
	tb.Helper()
	outer, err := ScanByName(ctx, "o", "o", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	f := newKeyFilter(outer.Parts, []int{1})
	wide, err := ScanByName(ctx, "wide", "w", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, part := range wide.Parts {
		for _, row := range part {
			if f.passes(row[1]) {
				n++
			}
		}
	}
	return n
}

// allocBytesPer runs op once to warm the page cache, then reports the bytes
// allocated per unit of the count op returns (the lower of two measured runs).
func allocBytesPer(op func() int64) (perUnit float64, units int64) {
	units = op()
	best := ^uint64(0)
	for range 2 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(best) / float64(units), units
}

func TestPagedAccessAllocationBounds(t *testing.T) {
	ctx := pagedAllocFixture(t)
	// A fetched row costs its 16-value inner tuple, its 18-value output
	// tuple, and five short strings: about 1.4 KB. Decoding the row's whole
	// page instead costs 1024 such tuples — over 500 KB.
	perFetched, fetched := allocBytesPer(func() int64 { return indexJoinPaged(t, ctx) })
	if want := int64(allocOuter * allocRows / allocKeys); fetched != want {
		t.Fatalf("index join fetched %d rows, want %d", fetched, want)
	}
	if perFetched > 4<<10 {
		t.Errorf("index join over pages allocates %.0f bytes per fetched row, want <= 4 KiB: rows are being built that no lookup asked for", perFetched)
	}
	// A surviving scanned row costs its 4-value projected tuple plus, spread
	// over the partition's survivors, the cursor's reused decode and
	// predicate buffers: under 1 KB. Building all fifty rows it was chosen
	// from, full width, costs over 25 KB.
	perSurvivor, survivors := allocBytesPer(func() int64 { return filteredScanPaged(t, ctx) })
	if want := int64(allocRows / allocGrpRange); survivors != want {
		t.Fatalf("filtered scan kept %d rows, want %d", survivors, want)
	}
	if perSurvivor > 4<<10 {
		t.Errorf("filtered scan over pages allocates %.0f bytes per surviving row, want <= 4 KiB: rows are being built before the filter runs", perSurvivor)
	}
	// A probe row the join filter passes costs its 16-value tuple and five
	// strings, and the join's output adds an 18-value tuple per match — spread
	// over the survivors, under 2 KB. Building every probe row the filter
	// rejects as well costs over 8 KB per survivor.
	passed := filterSurvivors(t, ctx)
	perPassed, outputs := allocBytesPer(func() int64 { return broadcastJoinPaged(t, ctx) })
	if want := int64(allocOuter * allocRows / allocKeys); outputs != want {
		t.Fatalf("broadcast join produced %d rows, want %d", outputs, want)
	}
	perPassed *= float64(outputs) / float64(passed)
	if perPassed > 4<<10 {
		t.Errorf("broadcast join over pages allocates %.0f bytes per probe row the join filter passes, want <= 4 KiB: rows are being built that the filter rejects", perPassed)
	}
	t.Logf("%.0f bytes per fetched row (%d rows), %.0f bytes per surviving scanned row (%d rows), %.0f bytes per filter-passed probe row (%d of %d rows)",
		perFetched, fetched, perSurvivor, survivors, perPassed, passed, allocRows)
}

func BenchmarkIndexNLJoinPaged(b *testing.B) {
	ctx := pagedAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		rows = indexJoinPaged(b, ctx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/fetched-row")
}

func BenchmarkPagedScanFiltered(b *testing.B) {
	ctx := pagedAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filteredScanPaged(b, ctx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/allocRows, "ns/scanned-row")
}
