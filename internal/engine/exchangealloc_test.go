package engine

import "testing"

// The allocation guard of the build-side exchange, beside the probe path's
// (probealloc_test.go): every array the exchange makes is made once, at its
// final size — the hashes and destinations of pass one, the destination
// partitions and their prehashes of pass two — so a row costs its bytes in
// those arrays and nothing for regrowth. The bounds are what the relation
// exchange this one replaced (repartition) measured on the same fixture at
// its last commit, 44.91 and 61.30 bytes per row, and benchmark's 2 %
// alloc_mb_per_query bound leans on them.

const exchangeAllocRows = 100000

func exchangeAllocFixture(tb testing.TB) (*Context, *Relation) {
	tb.Helper()
	ctx := testCtx(tb, 4)
	rows := make([][]int64, exchangeAllocRows)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i * 7919 % 5003), int64(i % 50)}
	}
	register(tb, ctx, "fact", []string{"id"}, []string{"id", "k", "attr"}, rows)
	rel, err := ScanByName(ctx, "fact", "f", nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx, rel
}

func TestExchangeAllocationBounds(t *testing.T) {
	ctx, rel := exchangeAllocFixture(t)
	fact, _ := ctx.Catalog.Get("fact")
	for _, tc := range []struct {
		name  string
		src   func() (Source, error)
		sizes bool
		// limit: per row, a key hash (8) and a destination (4) from pass one, a
		// header (24) and a prehash (8) at the destination; a size (8) at both
		// ends when asked; a second header (24) and hash (8) for a chunk off a
		// cursor, which must be held between the passes. Plus the fixed arrays.
		limit float64
	}{
		{"landed", func() (Source, error) { return SourceOf(ctx, rel), nil }, false, 45.5},
		{"landed-sized", func() (Source, error) { return SourceOf(ctx, rel), nil }, true, 62},
		{"scanned", func() (Source, error) { return ScanSource(ctx, fact, "f", nil, nil) }, false, 45.5 + 32},
	} {
		per, rows := allocBytesPer(func() int64 {
			src, err := tc.src()
			if err != nil {
				t.Fatal(err)
			}
			out, hashes, sizes, err := exchange(ctx, src, []int{1}, tc.sizes)
			if err != nil {
				t.Fatal(err)
			}
			if len(hashes) != len(out.Parts) || (sizes != nil) != tc.sizes {
				t.Fatalf("%s: %d partitions, %d hash arrays, sizes %v", tc.name, len(out.Parts), len(hashes), sizes != nil)
			}
			return out.RowCount()
		})
		if rows != exchangeAllocRows {
			t.Fatalf("%s: exchanged %d rows, want %d", tc.name, rows, exchangeAllocRows)
		}
		if per > tc.limit {
			t.Errorf("%s: exchange allocates %.2f bytes per row, want <= %.1f: an array is being regrown or made twice", tc.name, per, tc.limit)
		}
		t.Logf("%s: %.2f bytes per row", tc.name, per)
	}
}
