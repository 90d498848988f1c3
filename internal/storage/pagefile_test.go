package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"dynopt/internal/faults"
	"dynopt/internal/types"
)

// mixedSchema is a page-file test schema exercising every typed column path
// plus NULLs.
func mixedSchema() *types.Schema {
	return &types.Schema{Fields: []types.Field{
		{Name: "id", Kind: types.KindInt},
		{Name: "w", Kind: types.KindFloat},
		{Name: "tag", Kind: types.KindString},
	}}
}

func mixedRows(n, nullEvery int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		w := types.Float(float64(i) / 3)
		if nullEvery > 0 && i%nullEvery == 0 {
			w = types.Null()
		}
		rows[i] = types.Tuple{types.Int(int64(i)), w, types.Str(fmt.Sprintf("t%03d", i%50))}
	}
	return rows
}

// writePageFile writes rows split evenly over nparts partitions and returns
// the path.
func writePageFile(t *testing.T, dir string, schema *types.Schema, rows []types.Tuple, nparts, rowsPerPage int) string {
	t.Helper()
	path := filepath.Join(dir, "t.dynpg")
	w, err := NewPageWriter(path, schema, rowsPerPage)
	if err != nil {
		t.Fatal(err)
	}
	per := (len(rows) + nparts - 1) / nparts
	for p := 0; p < nparts; p++ {
		if err := w.StartPartition(); err != nil {
			t.Fatal(err)
		}
		lo, hi := p*per, (p+1)*per
		if hi > len(rows) {
			hi = len(rows)
		}
		for _, r := range rows[max(lo, 0):max(hi, 0)] {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// readAllRows decodes every page of every partition in order.
func readAllRows(t *testing.T, pf *PageFile) []types.Tuple {
	t.Helper()
	var out []types.Tuple
	var pd types.PageData
	for p := 0; p < pf.Partitions(); p++ {
		for i := range pf.Part(p).Pages {
			buf, err := pf.ReadPage(nil, p, i)
			if err != nil {
				t.Fatal(err)
			}
			if err := pd.DecodePage(buf, pf.Schema(), nil); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < pd.NRows; r++ {
				out = append(out, pd.Tuple(r))
			}
		}
	}
	return out
}

func TestPageFileRoundTrip(t *testing.T) {
	sch := mixedSchema()
	rows := mixedRows(1000, 7)
	path := writePageFile(t, t.TempDir(), sch, rows, 3, 64)
	pf, err := OpenPageFile(path, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.Rows() != 1000 {
		t.Errorf("Rows = %d, want 1000", pf.Rows())
	}
	if pf.Partitions() != 3 {
		t.Errorf("Partitions = %d, want 3", pf.Partitions())
	}
	got := readAllRows(t, pf)
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("decoded rows diverged from the written rows")
	}
	if err := pf.Verify(); err != nil {
		t.Errorf("Verify on a clean file: %v", err)
	}
	// Directory zone maps must hold the true per-page min/max and null
	// counts: id is ascending within each partition, so page i's id range is
	// exactly [first row, last row] of that page.
	for p := 0; p < pf.Partitions(); p++ {
		var off int64
		for i, pg := range pf.Part(p).Pages {
			cs := pg.Cols[0]
			if !cs.HasMinMax {
				t.Fatalf("page %d/%d id zone map missing", p, i)
			}
			wantMin := int64(p*334) + off
			if cs.Min.I() != wantMin || cs.Max.I() != wantMin+int64(pg.Rows)-1 {
				t.Errorf("page %d/%d id zone map [%v, %v], want [%d, %d]",
					p, i, cs.Min, cs.Max, wantMin, wantMin+int64(pg.Rows)-1)
			}
			if pg.Cols[1].Nulls == 0 && pg.Rows >= 7 {
				t.Errorf("page %d/%d w null count 0 over %d rows with every 7th NULL", p, i, pg.Rows)
			}
			off += int64(pg.Rows)
		}
	}
}

// TestPageFileCorruptionClassified drives every MutateFile damage kind
// against a sealed page file: whatever the mutation hits — a page payload, a
// frame header, the directory, the footer — the outcome must be a classified
// faults.ErrCorrupt from open, verify, or decode. Never a panic, never
// silently wrong rows.
func TestPageFileCorruptionClassified(t *testing.T) {
	sch := mixedSchema()
	rows := mixedRows(600, 9)
	for _, tc := range []struct {
		name string
		kind faults.CorruptKind
	}{
		{"flip-bit", faults.CorruptFlipBit},
		{"truncate-tail", faults.CorruptTruncateTail},
		{"torn-write", faults.CorruptTornWrite},
	} {
		for seed := int64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				path := writePageFile(t, t.TempDir(), sch, rows, 2, 32)
				reg := faults.New(100 + seed)
				reg.Arm(faults.Rule{Point: "page.corrupt", OneShot: true, Corrupt: tc.kind})
				pf, err := OpenPageFile(path, sch, reg)
				if reg.Fired("page.corrupt") != 1 {
					t.Fatal("page.corrupt never fired")
				}
				if err != nil {
					if !errors.Is(err, faults.ErrCorrupt) {
						t.Fatalf("open failed unclassified: %v", err)
					}
					return
				}
				defer pf.Close()
				if err := pf.Verify(); err != nil {
					if !errors.Is(err, faults.ErrCorrupt) {
						t.Fatalf("verify failed unclassified: %v", err)
					}
					return
				}
				// Verify passed end to end: the decode must then reproduce the
				// written rows exactly — damage that slipped every checksum
				// and changed a row would be the silent-wrong-rows failure
				// this test exists to rule out.
				if got := readAllRows(t, pf); !reflect.DeepEqual(got, rows) {
					t.Fatal("verify passed but decoded rows diverged: silent corruption")
				}
			})
		}
	}
}

// TestPageReadFaultClassified: an injected I/O error on the page.read point
// surfaces classified, not as corruption.
func TestPageReadFaultClassified(t *testing.T) {
	sch := mixedSchema()
	path := writePageFile(t, t.TempDir(), sch, mixedRows(100, 0), 1, 32)
	reg := faults.New(7)
	pf, err := OpenPageFile(path, sch, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	reg.Arm(faults.Rule{Point: "page.read", OneShot: true})
	if _, err := pf.ReadPage(nil, 0, 0); !errors.Is(err, faults.ErrSpillIO) {
		t.Fatalf("injected read fault not classified ErrSpillIO: %v", err)
	}
	// The fault was one-shot; the next read succeeds.
	if _, err := pf.ReadPage(nil, 0, 0); err != nil {
		t.Fatalf("read after one-shot fault: %v", err)
	}
}

// TestPageCacheMultiFileKeying: a cache shared across datasets must key
// payloads by owning file, not bare (part, page) coordinates — two files
// always share those.
func TestPageCacheMultiFileKeying(t *testing.T) {
	sch := intSchema("a", "b")
	dir := t.TempDir()
	write := func(name string, base int64) *PageFile {
		path := filepath.Join(dir, name)
		w, err := NewPageWriter(path, sch, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.StartPartition(); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 16; i++ {
			if err := w.Append(types.Tuple{types.Int(base + i), types.Int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		pf, err := OpenPageFile(path, sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	fa, fb := write("a.dynpg", 0), write("b.dynpg", 1000)
	defer fa.Close()
	defer fb.Close()

	cache := NewPageCache(1 << 20)
	bufA, err := fa.ReadPage(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(fa, 0, 0, bufA)
	if cache.Get(fb, 0, 0) != nil {
		t.Fatal("cache returned file A's page for file B's (0, 0)")
	}
	if cache.Get(fa, 0, 0) == nil {
		t.Fatal("cache missed file A's own page")
	}
	bufB, err := fb.ReadPage(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(fb, 0, 0, bufB)
	var pd types.PageData
	if err := pd.DecodePage(cache.Get(fb, 0, 0), sch, nil); err != nil {
		t.Fatal(err)
	}
	if got := pd.Tuple(0)[0].I(); got != 1000 {
		t.Fatalf("file B's cached page decodes id %d, want 1000", got)
	}
}

// TestPageCacheBudgetAndEviction: the cache never holds more than its byte
// budget, evicts least-recently-used first, and balances its governor
// reservations on Close.
func TestPageCacheBudgetAndEviction(t *testing.T) {
	var reserved int64
	c := NewPageCache(100)
	c.Reserve = func(n int64) bool { reserved += n; return true }
	c.Release = func(n int64) { reserved -= n }
	pay := func(n int) []byte { return make([]byte, n) }
	var files [3]PageFile

	c.Put(&files[0], 0, 0, pay(40))
	c.Put(&files[1], 0, 0, pay(40))
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("stats before any Get: %d/%d", h, m)
	}
	// Touch file 0 so file 1 is the LRU victim.
	if c.Get(&files[0], 0, 0) == nil {
		t.Fatal("miss on cached page")
	}
	c.Put(&files[2], 0, 0, pay(40))
	if c.Get(&files[1], 0, 0) != nil {
		t.Fatal("LRU victim still cached")
	}
	if c.Get(&files[0], 0, 0) == nil || c.Get(&files[2], 0, 0) == nil {
		t.Fatal("survivors evicted")
	}
	if c.Used() > 100 {
		t.Fatalf("Used %d exceeds budget 100", c.Used())
	}
	// An over-budget payload is declined outright.
	c.Put(&files[1], 0, 1, pay(200))
	if c.Get(&files[1], 0, 1) != nil {
		t.Fatal("over-budget payload cached")
	}
	if c.Used() != reserved {
		t.Fatalf("governor reservation %d diverged from Used %d", reserved, c.Used())
	}
	c.Close()
	if reserved != 0 {
		t.Fatalf("Close left %d bytes reserved", reserved)
	}
}

// TestPagedOpenRoundTrip: WritePaged then OpenPaged reproduces the dataset —
// rows, partition layout, sizes, primary key, and persisted indexes.
func TestPagedOpenRoundTrip(t *testing.T) {
	sch := intSchema("id", "grp")
	ds, st, err := Build("t", sch, []string{"id"}, genRows(1000), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndex(ds, "grp"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WritePaged(dir, ds, st, 64); err != nil {
		t.Fatal(err)
	}

	cache := NewPageCache(1 << 16)
	ods, ost, err := OpenPaged(dir, "t", cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ods.Paged().File().Close()
	if !ods.IsPaged() {
		t.Fatal("opened dataset not paged")
	}
	if ods.RowCount() != ds.RowCount() || len(ods.Parts) != len(ds.Parts) {
		t.Fatalf("shape: %d rows / %d parts, want %d / %d",
			ods.RowCount(), len(ods.Parts), ds.RowCount(), len(ds.Parts))
	}
	if ods.ByteSize() != ds.ByteSize() {
		t.Errorf("ByteSize %d, want %d (metering must be byte-identical)", ods.ByteSize(), ds.ByteSize())
	}
	if !reflect.DeepEqual(ods.PrimaryKey, ds.PrimaryKey) {
		t.Errorf("primary key %v, want %v", ods.PrimaryKey, ds.PrimaryKey)
	}
	if ost == nil || ost.RecordCount != st.RecordCount {
		t.Error("sidecar statistics did not round-trip")
	}
	if !ods.HasIndex("grp") {
		t.Fatal("persisted index not loaded")
	}
	for p := range ds.Parts {
		rows, err := ods.Paged().MaterializePart(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, ds.Parts[p]) {
			t.Fatalf("partition %d rows diverged", p)
		}
		if ods.PartRows(p) != int64(len(ds.Parts[p])) {
			t.Errorf("PartRows(%d) = %d, want %d", p, ods.PartRows(p), len(ds.Parts[p]))
		}
		// The loaded index must agree with the in-memory one through the
		// paged row fetcher.
		idx := ods.Indexes["grp"]
		lo, hi := idx.Lookup(p, types.Int(3))
		var offs []int
		for i := lo; i < hi; i++ {
			offs = append(offs, idx.Row(p, i))
		}
		fetched, err := ods.Paged().Part(p, nil).Fetch(offs, nil)
		if err != nil {
			t.Fatal(err)
		}
		fi := ds.Schema.MustIndex("grp")
		if len(fetched) != hi-lo {
			t.Fatalf("paged index probe fetched %d rows, want %d", len(fetched), hi-lo)
		}
		for _, row := range fetched {
			if row[fi].I() != 3 {
				t.Fatalf("paged index probe fetched wrong row %v", row)
			}
		}
	}
}

// TestIndexLookupRange: the persistent index's range seek agrees with a full
// scan for every bound shape.
func TestIndexLookupRange(t *testing.T) {
	sch := intSchema("id", "k")
	ds, _, err := Build("t", sch, []string{"id"}, genRows(500), 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(ds, "k")
	if err != nil {
		t.Fatal(err)
	}
	fi := ds.Schema.MustIndex("k")
	count := func(lo, hi int64, hasLo, hasHi bool) (scan, seek int) {
		for p := range ds.Parts {
			for _, r := range ds.Parts[p] {
				v := r[fi].I()
				if (!hasLo || v >= lo) && (!hasHi || v <= hi) {
					scan++
				}
			}
			a, b := idx.LookupRange(p, types.Int(lo), types.Int(hi), hasLo, hasHi)
			seek += b - a
		}
		return
	}
	for _, tc := range []struct {
		lo, hi       int64
		hasLo, hasHi bool
	}{
		{2, 5, true, true}, {0, 4, false, true}, {7, 0, true, false},
		{0, 0, false, false}, {4, 4, true, true}, {11, 20, true, true},
	} {
		scan, seek := count(tc.lo, tc.hi, tc.hasLo, tc.hasHi)
		if scan != seek {
			t.Errorf("range [%d,%d] (has %v/%v): scan %d, seek %d",
				tc.lo, tc.hi, tc.hasLo, tc.hasHi, scan, seek)
		}
	}
	if a, b := idx.LookupRange(-1, types.Int(0), types.Int(1), true, true); a != b {
		t.Error("out-of-range partition seek not empty")
	}
}
