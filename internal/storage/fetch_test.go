package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dynopt/internal/types"
)

// fetchFixture is a two-partition paged store whose pages mix every column
// encoding: typed int, float, string and bool columns with NULLs, a column
// holding values of two kinds (per-value fallback) and an all-NULL column.
// 7-row pages leave a short last page in each partition.
func fetchFixture(t *testing.T, cache *PageCache) *PagedData {
	t.Helper()
	schema := &types.Schema{Fields: []types.Field{
		{Name: "id", Kind: types.KindInt},
		{Name: "w", Kind: types.KindFloat},
		{Name: "tag", Kind: types.KindString},
		{Name: "ok", Kind: types.KindBool},
		{Name: "mix", Kind: types.KindInt},
		{Name: "void", Kind: types.KindString},
	}}
	rows := make([]types.Tuple, 103)
	for i := range rows {
		r := types.Tuple{types.Int(int64(i)), types.Float(float64(i) / 3), types.Str(fmt.Sprintf("tag-%03d", i)),
			types.Bool(i%3 == 0), types.Int(int64(-i)), types.Null()}
		if i%4 == 1 {
			r[1], r[2], r[3] = types.Null(), types.Null(), types.Null()
		}
		if i%5 == 2 {
			r[4] = types.Str("not an int")
		}
		rows[i] = r
	}
	file, err := OpenPageFile(writePageFile(t, t.TempDir(), schema, rows, 2, 7), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	return AttachPages(&Dataset{Name: "t", Schema: schema}, file, cache)
}

// TestFetchMatchesMaterializedPart is the batched fetch's property test: any
// batch of offsets — unsorted, repeated, spanning pages, on page boundaries,
// empty — returns exactly MaterializePart(p)[off] in request order, appended
// after what dst held, and reads each touched page once.
func TestFetchMatchesMaterializedPart(t *testing.T) {
	for _, cached := range []bool{false, true} {
		var cache *PageCache
		if cached {
			cache = NewPageCache(1 << 12)
		}
		pg := fetchFixture(t, cache)
		rng := rand.New(rand.NewSource(7))
		for p := 0; p < pg.File().Partitions(); p++ {
			part, err := pg.MaterializePart(p)
			if err != nil {
				t.Fatal(err)
			}
			n := len(part)
			batches := [][]int{
				{},
				{0},
				{n - 1},
				{6, 7},       // last row of page 0, first row of page 1
				{7, 6, 7, 6}, // the same, unsorted and repeated
				{n - 1, 0, n - 1, 0},
				rng.Perm(n), // every row, shuffled
			}
			for range 200 {
				b := make([]int, rng.Intn(40))
				for i := range b {
					b[i] = rng.Intn(n)
				}
				batches = append(batches, b)
			}
			var st PageScanStats
			view := pg.Part(p, &st)
			sentinel := types.Tuple{types.Str("kept")}
			for _, offs := range batches {
				before := st.PagesRead.Load()
				got, err := view.Fetch(offs, []types.Tuple{sentinel})
				if err != nil {
					t.Fatalf("cached=%v part %d offs %v: %v", cached, p, offs, err)
				}
				if len(got) != len(offs)+1 || !reflect.DeepEqual(got[0], sentinel) {
					t.Fatalf("cached=%v part %d offs %v: %d rows returned, dst prefix %v", cached, p, offs, len(got), got[0])
				}
				pages := map[int]bool{}
				for i, off := range offs {
					if !reflect.DeepEqual(got[i+1], part[off]) {
						t.Fatalf("cached=%v part %d offs %v: position %d is %v, want row %d = %v", cached, p, offs, i, got[i+1], off, part[off])
					}
					pages[off/7] = true
				}
				if reads := st.PagesRead.Load() - before; reads != int64(len(pages)) {
					t.Fatalf("cached=%v part %d offs %v: %d page reads for %d distinct pages", cached, p, offs, reads, len(pages))
				}
			}
			if traffic := st.CacheHits.Load() + st.CacheMisses.Load(); cached != (traffic == st.PagesRead.Load()) || !cached && traffic != 0 {
				t.Errorf("cached=%v part %d: %d hits + %d misses over %d page reads", cached, p, st.CacheHits.Load(), st.CacheMisses.Load(), st.PagesRead.Load())
			}
			for _, bad := range [][]int{{-1}, {n}, {0, n + 5, 1}} {
				before := st.PagesRead.Load()
				if got, err := view.Fetch(bad, nil); err == nil {
					t.Errorf("part %d offs %v: fetched %d rows, want an out-of-range error", p, bad, len(got))
				}
				if st.PagesRead.Load() != before {
					t.Errorf("part %d offs %v: a rejected batch read pages", p, bad)
				}
			}
		}
	}
}
