package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dynopt/internal/types"
)

// The layout contract of a resident base dataset (partLayout): Build owns a
// copy of the rows in one value slab per partition, numeric columns are
// served from whole-partition vectors gathered once, and the width profile
// answers what a projected row weighs without reading it.

// cloneRows deep-copies the tuple headers and values, so a test can mutate
// one copy and compare against the other.
func cloneRows(rows []types.Tuple) []types.Tuple {
	out := make([]types.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// placed computes where Build must put each row — partition hash(pk) % n in
// input order, round-robin without a key — independently of Build's slabs.
func placed(rows []types.Tuple, pkIdx []int, nparts int) [][]types.Tuple {
	parts := make([][]types.Tuple, nparts)
	for i, r := range rows {
		p := i % nparts
		if pkIdx != nil {
			p = int(r.HashKeys(pkIdx) % uint64(nparts))
		}
		parts[p] = append(parts[p], r)
	}
	return parts
}

func requireSameParts(t *testing.T, got, want [][]types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d partitions, want %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("partition %d holds %d rows, want %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i].String() != want[p][i].String() {
				t.Fatalf("partition %d row %d = %s, want %s", p, i, got[p][i], want[p][i])
			}
		}
	}
}

func TestBuildPlacementMatchesHashAndRoundRobin(t *testing.T) {
	rows := genRows(997)
	for _, tc := range []struct {
		name  string
		pk    []string
		pkIdx []int
	}{{"keyed", []string{"id"}, []int{0}}, {"round-robin", nil, nil}} {
		t.Run(tc.name, func(t *testing.T) {
			ds, _, err := Build("t", intSchema("id", "grp"), tc.pk, rows, 5)
			if err != nil {
				t.Fatal(err)
			}
			requireSameParts(t, ds.Parts, placed(rows, tc.pkIdx, 5))
		})
	}
}

func TestBuildOwnsItsRows(t *testing.T) {
	rows := genRows(300)
	want := placed(cloneRows(rows), []int{0}, 4)
	ds, _, err := Build("t", intSchema("id", "grp"), []string{"id"}, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The caller reuses its slice every way it can: overwrite values in
	// place, re-slice a row, drop a row, then clear the lot.
	for i := range rows {
		rows[i][0], rows[i][1] = types.Str("clobbered"), types.Null()
	}
	rows[0] = rows[0][:1]
	rows[1] = nil
	clear(rows)
	requireSameParts(t, ds.Parts, want)

	// A stored row is capacity-clamped: appending to it reallocates instead
	// of running into the next row of the slab.
	for p, part := range ds.Parts {
		if len(part) < 2 {
			t.Fatalf("partition %d too small for the neighbour check", p)
		}
		if cap(part[0]) != len(part[0]) {
			t.Fatalf("stored row has capacity %d beyond its %d values", cap(part[0]), len(part[0]))
		}
		_ = append(part[0], types.Int(-1), types.Int(-1))
	}
	requireSameParts(t, ds.Parts, want)
}

// TestBuildHeapShape is the guard against "one heap object per row" coming
// back: rows of a partition are adjacent in one slab, and a loaded dataset
// holds a bounded number of heap objects however many rows it has.
func TestBuildHeapShape(t *testing.T) {
	const n = 50000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rows := genRows(n)
	ds, st, err := Build("t", intSchema("id", "grp"), []string{"id"}, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapObjects) - int64(before.HeapObjects)
	if grown >= n/10 {
		t.Errorf("a Build of %d rows left %d more heap objects live, want < %d: rows are separate objects again", n, grown, n/10)
	}
	for p, part := range ds.Parts {
		for i := 0; i+1 < len(part); i++ {
			next := unsafe.Add(unsafe.Pointer(unsafe.SliceData(part[i])), uintptr(len(part[i]))*unsafe.Sizeof(types.Value{}))
			if unsafe.Pointer(unsafe.SliceData(part[i+1])) != next {
				t.Fatalf("partition %d: row %d does not start where row %d ends", p, i+1, i)
			}
		}
	}
	runtime.KeepAlive(st)
}

// randomPartitions builds a dataset of random shape for the vector and width
// properties: int, float and string columns, NULLs, the odd value of the
// wrong kind, and few enough rows that some partitions stay empty.
func randomPartitions(t *testing.T, rng *rand.Rand) *Dataset {
	t.Helper()
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString}
	schema := &types.Schema{}
	ncols := 1 + rng.Intn(5)
	for c := 0; c < ncols; c++ {
		schema.Fields = append(schema.Fields, types.Field{Name: fmt.Sprintf("c%d", c), Kind: kinds[rng.Intn(len(kinds))]})
	}
	// Per column: how often a NULL or a wrong-kind value appears, and whether
	// strings vary in length. Zero for most columns so clean ones are common.
	nullEvery, mixEvery, varLen := make([]int, ncols), make([]int, ncols), make([]bool, ncols)
	for c := range nullEvery {
		if rng.Intn(3) == 0 {
			nullEvery[c] = 1 + rng.Intn(6)
		}
		if rng.Intn(5) == 0 {
			mixEvery[c] = 1 + rng.Intn(40)
		}
		varLen[c] = rng.Intn(2) == 0
	}
	rows := make([]types.Tuple, rng.Intn(120))
	for i := range rows {
		row := make(types.Tuple, ncols)
		for c, f := range schema.Fields {
			switch {
			case nullEvery[c] > 0 && rng.Intn(nullEvery[c]) == 0:
				row[c] = types.Null()
			case mixEvery[c] > 0 && rng.Intn(mixEvery[c]) == 0:
				row[c] = types.Bool(true) // no column is of kind bool
			case f.Kind == types.KindInt:
				row[c] = types.Int(rng.Int63n(1000))
			case f.Kind == types.KindFloat:
				row[c] = types.Float(rng.Float64())
			case varLen[c]:
				row[c] = types.Str("abcdefgh"[:1+rng.Intn(8)])
			default:
				row[c] = types.Str("same")
			}
		}
		rows[i] = row
	}
	ds, _, err := Build("t", schema, nil, rows, 1+rng.Intn(6))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func requireSameVec(t *testing.T, where string, got, want *types.ColVec) {
	t.Helper()
	if got.Mixed != want.Mixed {
		t.Fatalf("%s: Mixed = %v, gather says %v", where, got.Mixed, want.Mixed)
	}
	if want.Mixed {
		return // payloads are invalid either way: consumers use the rows
	}
	if got.Kind != want.Kind {
		t.Fatalf("%s: Kind = %v, want %v", where, got.Kind, want.Kind)
	}
	if !slices.Equal(got.Null, want.Null) || !slices.Equal(got.Ints, want.Ints) ||
		!slices.Equal(got.Floats, want.Floats) || !slices.Equal(got.Strs, want.Strs) {
		t.Fatalf("%s: vector differs from a gather of the same window\n got %+v\nwant %+v", where, *got, *want)
	}
}

// TestChunkReaderColMatchesGather: whatever serves a column — the kept
// vector or the per-window gather — a reader's Col equals ColVec.Gather over
// the window it just returned, for every window size from one row to the
// whole partition, on base and temp datasets alike.
func TestChunkReaderColMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 60; iter++ {
		ds := randomPartitions(t, rng)
		ds.Temp = iter%4 == 3
		for _, size := range []int{0, 1, 7, 1 << 20} {
			// One reader rebound across the partitions, as a scan does.
			r := ds.ChunkReader(0, size)
			for p := range ds.Parts {
				ds.Rebind(r, p)
				seen := 0
				for {
					win, ok := r.Next()
					if !ok {
						break
					}
					if len(win) == 0 {
						t.Fatalf("iter %d size %d partition %d: empty window", iter, size, p)
					}
					for c, f := range ds.Schema.Fields {
						var want types.ColVec
						want.Gather(win, c, f.Kind)
						requireSameVec(t, fmt.Sprintf("iter %d size %d partition %d row %d column %d", iter, size, p, seen, c), r.Col(c), &want)
					}
					seen += len(win)
				}
				if seen != len(ds.Parts[p]) {
					t.Fatalf("iter %d size %d: partition %d yielded %d rows of %d", iter, size, p, seen, len(ds.Parts[p]))
				}
			}
		}
	}
}

// mixedKindRows is a three-column table — int, float, string — of n rows,
// every value non-NULL and of its column's kind.
func mixedKindRows(n int) (*types.Schema, []types.Tuple) {
	schema := types.NewSchema(
		types.Field{Name: "i", Kind: types.KindInt},
		types.Field{Name: "f", Kind: types.KindFloat},
		types.Field{Name: "s", Kind: types.KindString},
	)
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Float(float64(i) / 2), types.Str(fmt.Sprintf("row-%d", i))}
	}
	return schema, rows
}

// firstWindowData returns the backing array addresses of column c's payload
// in the first window a fresh reader over partition 0 serves.
func firstWindowData(ds *Dataset, c int) (ints *int64, floats *float64, strs *string) {
	r := ds.ChunkReader(0, 64)
	r.Next()
	v := r.Col(c)
	return unsafe.SliceData(v.Ints), unsafe.SliceData(v.Floats), unsafe.SliceData(v.Strs)
}

func TestKeptVectorsSharedByReaders(t *testing.T) {
	schema, rows := mixedKindRows(1000)
	ds, _, err := Build("t", schema, nil, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	ai, _, _ := firstWindowData(ds, 0)
	bi, _, _ := firstWindowData(ds, 0)
	if ai == nil || ai != bi {
		t.Error("two readers of an int column do not share one kept vector")
	}
	_, af, _ := firstWindowData(ds, 1)
	_, bf, _ := firstWindowData(ds, 1)
	if af == nil || af != bf {
		t.Error("two readers of a float column do not share one kept vector")
	}
	// Strings are never kept: the mirror would be a second copy of every
	// string header for the collector to walk.
	_, _, as := firstWindowData(ds, 2)
	_, _, bs := firstWindowData(ds, 2)
	if as == nil || as == bs {
		t.Error("a string column is served from a shared vector; it must gather per window")
	}
	// A temp's columns are not kept either: it is read once or twice and dies
	// with its query.
	ds.Temp = true
	ai, _, _ = firstWindowData(ds, 0)
	bi, _, _ = firstWindowData(ds, 0)
	if ai == nil || ai == bi {
		t.Error("a temp's int column is served from a shared vector; it must gather per window")
	}
}

func TestKeptVectorSecondPassAllocatesNothing(t *testing.T) {
	schema, rows := mixedKindRows(5000)
	ds, _, err := Build("t", schema, nil, rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := ds.ChunkReader(0, 256)
	var sum int64
	pass := func() {
		for p := range ds.Parts {
			ds.Rebind(r, p)
			for {
				win, ok := r.Next()
				if !ok {
					break
				}
				sum += r.Col(0).Ints[len(win)-1] + int64(r.Col(1).Floats[0])
			}
		}
	}
	pass() // builds both vectors of both partitions
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("a pass over kept columns allocates %.0f times, want 0", n)
	}
}

func TestKeptVectorBuiltOnceUnderContention(t *testing.T) {
	schema, rows := mixedKindRows(20000)
	ds, _, err := Build("t", schema, nil, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([]*int64, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g], _, _ = firstWindowData(ds, 0)
		}()
	}
	close(start)
	wg.Wait()
	for g, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("reader %d saw a different vector than reader 0: the column was gathered more than once", g)
		}
	}
}

// TestChunkReaderWholePartitionMode: size < 1 means "the whole partition",
// whichever partition the reader is bound to — not the length of the one it
// was created over.
func TestChunkReaderWholePartitionMode(t *testing.T) {
	ds := &Dataset{Schema: intSchema("id", "grp"), Parts: [][]types.Tuple{nil, genRows(5), genRows(40)}}
	for _, first := range []int{0, 1} { // an empty and a short first partition
		r := ds.ChunkReader(first, 0)
		for p := first; p < 3; p++ {
			ds.Rebind(r, p)
			win, ok := r.Next()
			if len(ds.Parts[p]) == 0 {
				if ok {
					t.Fatalf("first=%d: empty partition %d yielded a window", first, p)
				}
				continue
			}
			if !ok || len(win) != len(ds.Parts[p]) {
				t.Fatalf("first=%d: partition %d came as a window of %d rows, want all %d", first, p, len(win), len(ds.Parts[p]))
			}
			if _, again := r.Next(); again {
				t.Fatalf("first=%d: partition %d yielded a second window", first, p)
			}
		}
	}
}

// TestRowBytesIsTheSharedEncodedSize: a non-zero RowBytes is exactly what
// EncodedSizeCols reports for every row of the partition, and one odd value
// in a projected column — and only there — turns it off.
func TestRowBytesIsTheSharedEncodedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nonZero := 0
	for iter := 0; iter < 200; iter++ {
		ds := randomPartitions(t, rng)
		var cols []int // nil on some iterations: the whole row
		if rng.Intn(3) > 0 {
			for c := 0; c < ds.Schema.Len(); c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
		}
		for p, part := range ds.Parts {
			rb := ds.RowBytes(p, cols)
			uniform := len(part) > 0
			for _, row := range part {
				for _, c := range colsOrAll(cols, ds.Schema.Len()) {
					if row[c].EncodedSize() != part[0][c].EncodedSize() {
						uniform = false
					}
				}
			}
			if (rb > 0) != uniform {
				t.Fatalf("iter %d partition %d cols %v: RowBytes = %d but uniform = %v", iter, p, cols, rb, uniform)
			}
			if rb == 0 {
				continue
			}
			nonZero++
			for i, row := range part {
				if got := int64(row.EncodedSizeCols(cols)); got != rb {
					t.Fatalf("iter %d partition %d row %d: EncodedSizeCols(%v) = %d, RowBytes = %d", iter, p, i, cols, got, rb)
				}
			}
		}
	}
	if nonZero < 50 {
		t.Fatalf("only %d partitions had a fixed row width; the property is near vacuous", nonZero)
	}

	fixed := func(mutate func(rows []types.Tuple)) *Dataset {
		schema, rows := mixedKindRows(100)
		for _, r := range rows {
			r[2] = types.Str("const")
		}
		mutate(rows)
		ds, _, err := Build("t", schema, nil, rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	if rb := fixed(func([]types.Tuple) {}).RowBytes(0, nil); rb != 9+9+6 {
		t.Errorf("int, float and a five-byte string weigh %d, want 24", rb)
	}
	for name, mutate := range map[string]func(rows []types.Tuple){
		"a NULL":                 func(rows []types.Tuple) { rows[63][0] = types.Null() },
		"a different kind":       func(rows []types.Tuple) { rows[63][0] = types.Bool(true) },
		"strings of two lengths": func(rows []types.Tuple) { rows[63][2] = types.Str("longer") },
	} {
		ds, odd := fixed(mutate), 0
		if name == "strings of two lengths" {
			odd = 2
		}
		if rb := ds.RowBytes(0, []int{odd, 1}); rb != 0 {
			t.Errorf("%s in a projected column: RowBytes = %d, want 0", name, rb)
		}
		if rb := ds.RowBytes(0, []int{1}); rb != 9 {
			t.Errorf("%s outside the projection: RowBytes = %d, want 9", name, rb)
		}
	}
	ds := fixed(func([]types.Tuple) {})
	ds.Temp = true // the profile describes the rows, whatever the catalog calls them
	if rb := ds.RowBytes(0, nil); rb != 24 {
		t.Errorf("RowBytes = %d after marking the dataset temp, want 24", rb)
	}
}

func colsOrAll(cols []int, n int) []int {
	if cols != nil {
		return cols
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
