package types

import (
	"errors"
	"reflect"
	"testing"

	"dynopt/internal/faults"
)

func pageSchema() *Schema {
	return &Schema{Fields: []Field{
		{Name: "i", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
	}}
}

// decodeRows round-trips a page and materializes every row.
func decodeRows(t *testing.T, payload []byte, sch *Schema, need []bool) []Tuple {
	t.Helper()
	var pd PageData
	if err := pd.DecodePage(payload, sch, need); err != nil {
		t.Fatal(err)
	}
	out := make([]Tuple, pd.NRows)
	for r := range out {
		out[r] = pd.Tuple(r)
	}
	return out
}

func TestEncodePageEmpty(t *testing.T) {
	sch := pageSchema()
	payload, st := EncodePage(nil, sch, nil)
	if len(st) != sch.Len() {
		t.Fatalf("stats width %d", len(st))
	}
	for c, cs := range st {
		if cs.HasMinMax || cs.Nulls != 0 {
			t.Errorf("col %d stats non-empty: %+v", c, cs)
		}
	}
	var pd PageData
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	if pd.NRows != 0 {
		t.Errorf("NRows = %d", pd.NRows)
	}
}

func TestEncodePageAllNullColumn(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Null(), Float(1.5), Str("x"), Bool(true)},
		{Null(), Float(2.5), Null(), Bool(false)},
		{Null(), Null(), Str("z"), Null()},
	}
	payload, st := EncodePage(nil, sch, rows)
	if st[0].HasMinMax || st[0].Nulls != 3 {
		t.Errorf("all-NULL int column stats: %+v", st[0])
	}
	if !st[1].HasMinMax || st[1].Min.F() != 1.5 || st[1].Max.F() != 2.5 || st[1].Nulls != 1 {
		t.Errorf("float column stats: %+v", st[1])
	}
	if got := decodeRows(t, payload, sch, nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip diverged: %v", got)
	}
}

// TestEncodePageMixedKindFallback: a column whose values disagree with the
// schema kind takes the per-value fallback encoding and still round-trips
// exactly, with zone maps ordered by Value.Compare across kinds.
func TestEncodePageMixedKindFallback(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Int(1), Float(0.5), Str("a"), Bool(true)},
		{Str("not-an-int"), Float(1.5), Str("b"), Bool(false)},
		{Int(3), Null(), Int(9), Null()},
	}
	payload, _ := EncodePage(nil, sch, rows)
	var pd PageData
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	if !pd.Cols[0].Fallback || !pd.Cols[2].Fallback {
		t.Error("mixed-kind columns did not fall back")
	}
	if pd.Cols[1].Fallback {
		t.Error("clean float column fell back")
	}
	got := make([]Tuple, pd.NRows)
	for r := range got {
		got[r] = pd.Tuple(r)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip diverged: %v", got)
	}
}

// TestEncodePageBoolFallback: bools are typed on the wire (one byte per row)
// but decode to row-form values, since no vector kernel consumes them.
func TestEncodePageBoolFallback(t *testing.T) {
	sch := &Schema{Fields: []Field{{Name: "b", Kind: KindBool}}}
	rows := []Tuple{{Bool(true)}, {Null()}, {Bool(false)}}
	payload, st := EncodePage(nil, sch, rows)
	if !st[0].HasMinMax || st[0].Nulls != 1 {
		t.Errorf("bool stats: %+v", st[0])
	}
	var pd PageData
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	if !pd.Cols[0].Fallback {
		t.Error("bool column decoded as a vector")
	}
	for r, want := range rows {
		if !pd.Value(0, r).Equal(want[0]) && !(want[0].IsNull() && pd.Value(0, r).IsNull()) {
			t.Errorf("row %d: %v, want %v", r, pd.Value(0, r), want[0])
		}
	}
}

// TestDecodePageProjectionSkip: need[i]=false jumps the column's bytes —
// skipped columns surface as NULL, everything needed decodes exactly.
func TestDecodePageProjectionSkip(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Int(1), Float(0.5), Str("a"), Bool(true)},
		{Int(2), Float(1.5), Str("bb"), Bool(false)},
	}
	payload, _ := EncodePage(nil, sch, rows)
	var pd PageData
	if err := pd.DecodePage(payload, sch, []bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	if !pd.Cols[1].Skipped || !pd.Cols[3].Skipped {
		t.Error("unneeded columns not skipped")
	}
	for r := range rows {
		got := pd.Tuple(r)
		if !got[0].Equal(rows[r][0]) || !got[2].Equal(rows[r][2]) {
			t.Errorf("row %d needed columns diverged: %v", r, got)
		}
		if !got[1].IsNull() || !got[3].IsNull() {
			t.Errorf("row %d skipped columns not NULL: %v", r, got)
		}
	}
	// A reused PageData must clear the Skipped state when the next decode
	// needs every column.
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	for r := range rows {
		if got := pd.Tuple(r); !reflect.DeepEqual(got, rows[r]) {
			t.Errorf("reused decode row %d: %v", r, got)
		}
	}
}

// TestDecodePageSchemaMismatch: a page decoded against the wrong schema
// width fails classified, never misaligns columns.
func TestDecodePageSchemaMismatch(t *testing.T) {
	payload, _ := EncodePage(nil, pageSchema(), []Tuple{{Int(1), Float(1), Str("x"), Bool(true)}})
	narrow := &Schema{Fields: []Field{{Name: "i", Kind: KindInt}}}
	var pd PageData
	if err := pd.DecodePage(payload, narrow, nil); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("schema width mismatch not classified: %v", err)
	}
	// Same width, different kind: the typed column tag must disagree.
	wrongKind := pageSchema()
	wrongKind.Fields[0].Kind = KindFloat
	if err := pd.DecodePage(payload, wrongKind, nil); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("schema kind mismatch not classified: %v", err)
	}
}

// TestDecodePageTruncationClassified: every truncation point of a page
// payload fails classified ErrCorrupt — no panic, no partial decode.
func TestDecodePageTruncationClassified(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Int(1), Float(0.5), Str("hello"), Bool(true)},
		{Null(), Float(1.5), Str("world"), Null()},
	}
	payload, _ := EncodePage(nil, sch, rows)
	var pd PageData
	for cut := 0; cut < len(payload); cut++ {
		if err := pd.DecodePage(payload[:cut], sch, nil); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(payload))
		} else if !errors.Is(err, faults.ErrCorrupt) {
			t.Fatalf("truncation at %d unclassified: %v", cut, err)
		}
	}
}

// mixedPage is a page exercising every column encoding at once: typed int,
// float, string and bool columns with NULLs, a column whose values disagree
// with the schema kind (per-value fallback), and an all-NULL column.
func mixedPage() (*Schema, []Tuple) {
	sch := &Schema{Fields: []Field{
		{Name: "i", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
		{Name: "m", Kind: KindInt},
		{Name: "n", Kind: KindString},
	}}
	rows := make([]Tuple, 37)
	for r := range rows {
		t := Tuple{Int(int64(r * 7)), Float(float64(r) / 4), Str(string(rune('a'+r%26)) + "-payload"), Bool(r%2 == 0), Int(int64(r)), Null()}
		if r%5 == 0 {
			t[0], t[2] = Null(), Null()
		}
		if r%6 == 1 {
			t[1], t[3] = Null(), Null()
		}
		if r%4 == 2 {
			t[4] = Str("mixed")
		}
		rows[r] = t
	}
	return sch, rows
}

// selectRows is the reference for MaterializePageRows: the decoded rows sel
// names, projected onto cols.
func selectRows(rows []Tuple, cols []int, sel []int32) []Tuple {
	out := make([]Tuple, 0, len(sel))
	for _, r := range sel {
		if cols == nil {
			out = append(out, rows[r])
			continue
		}
		t := make(Tuple, len(cols))
		for j, c := range cols {
			t[j] = rows[r][c]
		}
		out = append(out, t)
	}
	return out
}

// TestMaterializePageRowsMatchesDecode: for every selection shape and
// projection shape, the selective materializer returns exactly the rows the
// whole-page decoder would, appended after what dst already held.
func TestMaterializePageRowsMatchesDecode(t *testing.T) {
	sch, rows := mixedPage()
	payload, _ := EncodePage(nil, sch, rows)
	all := make([]int32, len(rows))
	for r := range all {
		all[r] = int32(r)
	}
	sels := [][]int32{nil, {}, {0}, {int32(len(rows) - 1)}, {0, int32(len(rows) - 1)}, {2, 3, 4, 30}, all}
	colSets := [][]int{nil, {0}, {5}, {2, 0}, {4, 3, 2, 1, 0}, {1, 1, 4, 1}}
	for _, sel := range sels {
		for _, cols := range colSets {
			var arena Arena
			sentinel := Tuple{Str("kept")}
			got, err := MaterializePageRows(payload, sch, cols, sel, &arena, []Tuple{sentinel})
			if err != nil {
				t.Fatalf("sel %v cols %v: %v", sel, cols, err)
			}
			if !reflect.DeepEqual(got[0], sentinel) {
				t.Fatalf("sel %v cols %v: dst prefix overwritten", sel, cols)
			}
			if want := selectRows(rows, cols, sel); !reflect.DeepEqual(got[1:], want) {
				t.Fatalf("sel %v cols %v:\n got %v\nwant %v", sel, cols, got[1:], want)
			}
		}
	}
	var arena Arena
	for _, bad := range [][]int32{{3, 3}, {4, 2}, {-1}, {int32(len(rows))}} {
		_, err := MaterializePageRows(payload, sch, nil, bad, &arena, nil)
		if err == nil || errors.Is(err, faults.ErrCorrupt) {
			t.Errorf("selection %v: err = %v, want a non-corruption error", bad, err)
		}
	}
}

// TestMaterializePageRowsDamageSweep runs both decoders over every truncation
// and every single-bit flip of a page exercising all encodings. Truncations
// must fail classified ErrCorrupt. A bit flip may decode (a flipped value bit
// is only the CRC frame's to catch), but the two decoders must agree: the
// selective materializer validates each column it touches as strictly as
// DecodePage does, so it fails classified exactly when DecodePage does and
// otherwise builds the same rows — for a sparse selection too. Never a panic.
func TestMaterializePageRowsDamageSweep(t *testing.T) {
	sch, rows := mixedPage()
	payload, _ := EncodePage(nil, sch, rows)
	all := make([]int32, len(rows))
	for r := range all {
		all[r] = int32(r)
	}
	sparse := []int32{1, 17, int32(len(rows) - 1)}
	var arena Arena

	for cut := 0; cut < len(payload); cut++ {
		for _, sel := range [][]int32{all, sparse, {}} {
			if _, err := MaterializePageRows(payload[:cut], sch, nil, sel, &arena, nil); !errors.Is(err, faults.ErrCorrupt) {
				t.Fatalf("truncation at %d/%d, %d rows selected: err = %v", cut, len(payload), len(sel), err)
			}
		}
	}

	var pd PageData
	damaged := make([]byte, len(payload))
	for bit := 0; bit < 8*len(payload); bit++ {
		copy(damaged, payload)
		damaged[bit/8] ^= 1 << (bit % 8)
		derr := pd.DecodePage(damaged, sch, nil)
		if derr != nil && !errors.Is(derr, faults.ErrCorrupt) {
			t.Fatalf("bit %d: DecodePage failed unclassified: %v", bit, derr)
		}
		for _, sel := range [][]int32{all, sparse} {
			got, merr := MaterializePageRows(damaged, sch, nil, sel, &arena, nil)
			if derr != nil {
				// The damaged row count may put the selection out of range
				// before any column is reached; that is an error too.
				if merr == nil {
					t.Fatalf("bit %d: DecodePage failed (%v), materializer built %d rows", bit, derr, len(got))
				}
				continue
			}
			if merr != nil {
				t.Fatalf("bit %d: DecodePage succeeded, materializer failed: %v", bit, merr)
			}
			for k, r := range sel {
				if !reflect.DeepEqual(got[k], pd.Tuple(int(r))) {
					t.Fatalf("bit %d row %d: materialized %v, decoded %v", bit, r, got[k], pd.Tuple(int(r)))
				}
			}
		}
	}
}
