package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// pagedCopy converts ctx's resident dataset name into a paged twin on a
// second context, backed by page files of rowsPerPage under a cache of
// cacheBytes.
func pagedCopy(t testing.TB, ctx *Context, name string, rowsPerPage int, cacheBytes int64) *Context {
	t.Helper()
	ds, ok := ctx.Catalog.Get(name)
	if !ok {
		t.Fatalf("dataset %q missing", name)
	}
	dir := t.TempDir()
	if err := storage.WritePaged(dir, ds, ctx.Catalog.Stats().Get(name), rowsPerPage); err != nil {
		t.Fatal(err)
	}
	var cache *storage.PageCache
	if cacheBytes > 0 {
		cache = storage.NewPageCache(cacheBytes)
	}
	pds, pst, err := storage.OpenPaged(dir, name, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	pctx := testCtx(t, ctx.Cluster.Nodes())
	pctx.ChunkRows = ctx.ChunkRows
	pctx.PageStats = &storage.PageScanStats{}
	if err := pctx.Catalog.Register(pds, pst); err != nil {
		t.Fatal(err)
	}
	return pctx
}

func sortedRelRows(rel *Relation) []string {
	var out []string
	for _, part := range rel.Parts {
		for _, r := range part {
			out = append(out, fmt.Sprint(r))
		}
	}
	sort.Strings(out)
	return out
}

// TestPagedScanChunkStraddlesPages sweeps chunk capacity against page
// granularity — chunks smaller than a page, equal, larger, and mutually
// prime — over plain, filtered, and projected scans. Paged rows must match
// the resident scan exactly in every combination: page boundaries are a
// storage detail the chunk spine never observes.
func TestPagedScanChunkStraddlesPages(t *testing.T) {
	rows := seqTable(530, 10) // not a multiple of any page size below
	filter := &expr.Compare{
		Op: expr.CmpLt,
		L:  &expr.Column{Qualifier: "a", Name: "grp"},
		R:  &expr.Literal{Val: types.Int(4)},
	}
	for _, chunkRows := range []int{1, 3, 64, 4096} {
		for _, pageRows := range []int{1, 7, 64, 256} {
			t.Run(fmt.Sprintf("chunk%d/page%d", chunkRows, pageRows), func(t *testing.T) {
				ctx := testCtx(t, 3)
				ctx.ChunkRows = chunkRows
				register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, rows)
				pctx := pagedCopy(t, ctx, "t", pageRows, 1<<14)

				for _, tc := range []struct {
					name    string
					filter  expr.Expr
					project []string
				}{
					{"full", nil, nil},
					{"filtered", filter, nil},
					{"projected", nil, []string{"pay", "id"}},
					{"filtered-projected", filter, []string{"pay"}},
				} {
					want, err := ScanByName(ctx, "t", "a", tc.filter, tc.project)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ScanByName(pctx, "t", "a", tc.filter, tc.project)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sortedRelRows(got), sortedRelRows(want)) {
						t.Errorf("%s: paged rows diverged from resident (chunk %d, page %d)",
							tc.name, chunkRows, pageRows)
					}
					if !reflect.DeepEqual(got.Schema, want.Schema) {
						t.Errorf("%s: schema diverged", tc.name)
					}
				}
			})
		}
	}
}

// TestPagedScanPrunesWholePages: a selective range filter over the
// partition-ordered id column must skip pages whose zone maps exclude it,
// without losing a single passing row.
func TestPagedScanPrunesWholePages(t *testing.T) {
	ctx := testCtx(t, 1) // one partition keeps ids contiguous per page
	ctx.ChunkRows = 32
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(1000, 10))
	pctx := pagedCopy(t, ctx, "t", 50, 1<<14)
	filter := &expr.Between{
		X:  &expr.Column{Qualifier: "a", Name: "id"},
		Lo: &expr.Literal{Val: types.Int(100)},
		Hi: &expr.Literal{Val: types.Int(149)},
	}
	rel, err := ScanByName(pctx, "t", "a", filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.RowCount() != 50 {
		t.Errorf("rows = %d, want 50", rel.RowCount())
	}
	st := pctx.PageStats
	if st.PagesTotal.Load() != 20 {
		t.Errorf("PagesTotal = %d, want 20", st.PagesTotal.Load())
	}
	// Ids 100-149 span exactly one 50-row page; every other page must prune.
	if st.PagesPruned.Load() != 19 {
		t.Errorf("PagesPruned = %d, want 19", st.PagesPruned.Load())
	}
	if st.PagesRead.Load() != 1 {
		t.Errorf("PagesRead = %d, want 1", st.PagesRead.Load())
	}
}

// TestPagedScanWarmRepeatIsCacheResident: under a page cache sized to the
// dataset's bytes, a cold full scan cannot hit the cache, its warm repeat
// cannot miss it, and both return the resident scan's rows.
func TestPagedScanWarmRepeatIsCacheResident(t *testing.T) {
	ctx := testCtx(t, 4)
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(5000, 10))
	ds, _ := ctx.Catalog.Get("t")
	pctx := pagedCopy(t, ctx, "t", 64, ds.ByteSize())
	resident, err := ScanByName(ctx, "t", "a", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRelRows(resident)
	for _, pass := range []string{"cold", "warm"} {
		st := &storage.PageScanStats{}
		pctx.PageStats = st
		rel, err := ScanByName(pctx, "t", "a", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRelRows(rel), want) {
			t.Errorf("%s: paged rows diverged from resident", pass)
		}
		hits, misses := st.CacheHits.Load(), st.CacheMisses.Load()
		if pass == "cold" && (hits != 0 || misses == 0) {
			t.Errorf("cold scan: %d cache hits, %d misses; want 0 hits and every page a miss", hits, misses)
		}
		if pass == "warm" && (misses != 0 || hits == 0) {
			t.Errorf("warm scan under a full-budget cache: %d misses, %d hits; want 0 misses", misses, hits)
		}
	}
}

// TestPagedIndexJoinFetchesOncePerChunk: an index join whose outer lies thin
// over its partitions — a handful of rows in each — probes a paged inner in
// chunk-sized batches of the whole outer, never one batch per sliver. With a
// chunk that holds the outer, every inner partition reads each page its
// matches touch exactly once; at chunk capacity k, at most ⌈R/k⌉ times. Rows
// and their order are the reference model's either way.
func TestPagedIndexJoinFetchesOncePerChunk(t *testing.T) {
	const outerRows, keys, pageRows = 24, 40, 8
	outer := make([][]int64, outerRows)
	for i := range outer {
		outer[i] = []int64{int64(i), int64(i * 7 % keys)}
	}
	for _, chunkRows := range []int{1024, 5} {
		t.Run(fmt.Sprintf("chunk%d", chunkRows), func(t *testing.T) {
			ctx := testCtx(t, 4)
			ctx.ChunkRows = chunkRows
			// grp = id % keys: one key's matches lie on many pages.
			inner := register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(960, keys))
			if _, err := storage.BuildIndex(inner, "grp"); err != nil {
				t.Fatal(err)
			}
			pctx := pagedCopy(t, ctx, "t", pageRows, 0)
			register(t, pctx, "o", []string{"id"}, []string{"id", "k"}, outer)
			orel, err := ScanByName(pctx, "o", "o", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for p, part := range orel.Parts {
				if len(part) == 0 || len(part) == outerRows {
					t.Fatalf("vacuous: outer partition %d holds %d of %d rows", p, len(part), outerRows)
				}
			}
			paged, _ := pctx.Catalog.Get("t")
			got, err := IndexNLJoin(pctx, orel, paged, "t", []string{"o.k"}, []string{"grp"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := refJoin(refIndexNL, refInput{parts: orel.Parts, keys: []int{1}}, refInput{parts: inner.Parts, keys: []int{1}}, false)
			if !reflect.DeepEqual(relRows(got), relRows(&Relation{Parts: want})) {
				t.Errorf("paged index join diverged from the reference model")
			}

			// The pages the outer's keys touch, from the page directory.
			probed := map[int64]bool{}
			for _, o := range outer {
				probed[o[1]] = true
			}
			pgd := paged.Paged()
			var touched int64
			for p, part := range inner.Parts {
				row := 0
				for i := 0; i < pgd.Pages(p); i++ {
					end := row + int(pgd.Page(p, i).Rows)
					for hit := false; row < end; row++ {
						if k, _ := part[row][1].AsInt(); !hit && probed[k] {
							hit = true
							touched++
						}
					}
				}
			}
			if touched == 0 || touched > int64(pgd.TotalPages()) {
				t.Fatalf("model touched %d of %d pages", touched, pgd.TotalPages())
			}
			read := pctx.PageStats.PagesRead.Load()
			batches := int64((outerRows + chunkRows - 1) / chunkRows)
			if read < touched || read > batches*touched {
				t.Errorf("read %d pages for %d touched in %d batches; want within [%d, %d]",
					read, touched, batches, touched, batches*touched)
			}
		})
	}
}
