package types

import (
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Field{Qualifier: "a", Name: "x", Kind: KindInt},
		Field{Qualifier: "a", Name: "y", Kind: KindString},
		Field{Qualifier: "b", Name: "x", Kind: KindInt},
		Field{Qualifier: "b", Name: "z", Kind: KindFloat},
	)
}

func TestSchemaIndexQualified(t *testing.T) {
	s := testSchema()
	cases := []struct {
		name string
		want int
		ok   bool
	}{
		{"a.x", 0, true},
		{"a.y", 1, true},
		{"b.x", 2, true},
		{"b.z", 3, true},
		{"c.x", -1, false},
		{"a.z", -1, false},
	}
	for _, c := range cases {
		got, ok := s.Index(c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("Index(%q) = %d,%v want %d,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestSchemaIndexBareAndAmbiguous(t *testing.T) {
	s := testSchema()
	if i, ok := s.Index("y"); !ok || i != 1 {
		t.Errorf("Index(y) = %d,%v", i, ok)
	}
	if i, ok := s.Index("z"); !ok || i != 3 {
		t.Errorf("Index(z) = %d,%v", i, ok)
	}
	if _, ok := s.Index("x"); ok {
		t.Error("Index(x) should be ambiguous")
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should fail")
	}
}

func TestSchemaMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on missing column did not panic")
		}
	}()
	testSchema().MustIndex("missing")
}

func TestSchemaQualifiers(t *testing.T) {
	s := testSchema()
	q := s.Qualifiers()
	if len(q) != 2 || q[0] != "a" || q[1] != "b" {
		t.Errorf("Qualifiers() = %v", q)
	}
	if !s.HasQualifier("a") || s.HasQualifier("c") {
		t.Error("HasQualifier wrong")
	}
}

func TestSchemaConcatAndRequalify(t *testing.T) {
	s := testSchema()
	o := NewSchema(Field{Qualifier: "c", Name: "w", Kind: KindBool})
	cat := s.Concat(o)
	if cat.Len() != 5 || cat.Fields[4].QName() != "c.w" {
		t.Errorf("Concat wrong: %s", cat)
	}
	// Concat must not alias the receiver's backing array.
	if s.Len() != 4 {
		t.Error("Concat mutated receiver")
	}
	rq := s.Requalify("t")
	for _, f := range rq.Fields {
		if f.Qualifier != "t" {
			t.Errorf("Requalify left qualifier %q", f.Qualifier)
		}
	}
	if s.Fields[0].Qualifier != "a" {
		t.Error("Requalify mutated receiver")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p, idxs, err := s.Project([]string{"b.z", "a.x"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || idxs[0] != 3 || idxs[1] != 0 {
		t.Errorf("Project = %s idxs=%v", p, idxs)
	}
	if _, _, err := s.Project([]string{"x"}); err == nil {
		t.Error("Project on ambiguous bare name should error")
	}
}

func TestTupleCloneConcat(t *testing.T) {
	tu := Tuple{Int(1), Str("a")}
	cl := tu.Clone()
	cl[0] = Int(9)
	if tu[0].I() != 1 {
		t.Error("Clone aliased backing array")
	}
	cat := tu.Concat(Tuple{Bool(true)})
	if len(cat) != 3 || !cat[2].IsTrue() {
		t.Errorf("Concat = %v", cat)
	}
}

func TestTupleEncodedSize(t *testing.T) {
	tu := Tuple{Int(1), Str("ab"), Null()}
	if got := tu.EncodedSize(); got != 9+3+1 {
		t.Errorf("EncodedSize = %d", got)
	}
}

// The column-map forms must agree with narrowing first: sizing over a map is
// the size of the gathered tuple, and ConcatCols is Concat of the gathered
// sides, for every mix of mapped and whole sides.
func TestColumnMapHelpersMatchNarrowFirst(t *testing.T) {
	l := Tuple{Int(1), Str("left"), Null(), Float(2.5), Bool(true)}
	r := Tuple{Str(""), Int(7), Str("a longer string value")}
	maps := [][]int{nil, {}, {0}, {4, 1}, {3, 2, 1, 0}, {1, 1}}
	var a Arena
	narrow := func(t Tuple, cols []int) Tuple {
		if cols == nil {
			return t
		}
		return a.Gather(t, cols)
	}
	for _, lm := range maps {
		nl := narrow(l, lm)
		if got, want := l.EncodedSizeCols(lm), nl.EncodedSize(); got != want {
			t.Errorf("EncodedSizeCols(%v) = %d, gathered tuple sizes %d", lm, got, want)
		}
		for _, rm := range [][]int{nil, {2}, {2, 0}} {
			got, want := a.ConcatCols(l, lm, r, rm), a.Concat(nl, narrow(r, rm))
			if got.String() != want.String() {
				t.Errorf("ConcatCols(%v, %v) = %s, want %s", lm, rm, got, want)
			}
		}
	}
}

func TestHashKeysCompositeConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		t1 := Tuple{Int(a), Int(b), Str("pad")}
		t2 := Tuple{Str("other"), Int(a), Int(b)}
		return t1.HashKeys([]int{0, 1}) == t2.HashKeys([]int{1, 2})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashKeysOrderMatters(t *testing.T) {
	t1 := Tuple{Int(1), Int(2)}
	if t1.HashKeys([]int{0, 1}) == t1.HashKeys([]int{1, 0}) {
		t.Error("composite hash should be order sensitive")
	}
}

func TestKeysEqual(t *testing.T) {
	a := Tuple{Int(1), Str("x"), Int(3)}
	b := Tuple{Str("x"), Int(1), Int(4)}
	if !a.KeysEqual([]int{0, 1}, b, []int{1, 0}) {
		t.Error("KeysEqual false negative")
	}
	if a.KeysEqual([]int{0, 2}, b, []int{1, 2}) {
		t.Error("KeysEqual false positive")
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{Int(1), Str("a")}
	if got := tu.String(); got != "[1, 'a']" {
		t.Errorf("Tuple.String() = %q", got)
	}
}

// An arena wastes only the unused tail of its last chunk, and a chunk is at
// most an eighth of what the arena already holds (never under the minimum):
// whatever the output size, the bytes allocated stay within an eighth of
// the bytes handed out, plus one minimum chunk.
func TestArenaSlackIsBounded(t *testing.T) {
	row := Tuple{Int(1), Int(2), Int(3), Int(4), Int(5)}
	for _, rows := range []int{1, 40, 52, 1000, 1700, 2108, 40000} {
		var a Arena
		for i := 0; i < rows; i++ {
			a.Concat(row, row[:2])
		}
		used := rows * 7
		if limit := used + used/arenaSlackFrac + arenaMinChunk; a.held > limit {
			t.Errorf("%d rows: arena holds %d values for %d handed out, limit %d", rows, a.held, used, limit)
		}
	}
	// A tuple wider than the next chunk gets a chunk of its own size, and a
	// reservation is exact.
	var a Arena
	if got := a.Make(3 * arenaMinChunk); len(got) != 3*arenaMinChunk || a.held != 3*arenaMinChunk {
		t.Errorf("wide tuple: len %d, held %d", len(got), a.held)
	}
	a.Reserve(10000)
	if a.held != 3*arenaMinChunk+10000 {
		t.Errorf("after Reserve(10000): held %d", a.held)
	}
}
