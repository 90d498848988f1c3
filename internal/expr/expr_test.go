package expr

import (
	"strings"
	"testing"

	"dynopt/internal/types"
)

func testEnv() *Env {
	return &Env{
		Schema: types.NewSchema(
			types.Field{Qualifier: "o", Name: "k", Kind: types.KindInt},
			types.Field{Qualifier: "o", Name: "d", Kind: types.KindString},
			types.Field{Qualifier: "o", Name: "p", Kind: types.KindFloat},
		),
		Params: map[string]types.Value{"year": types.Int(1998)},
		UDFs:   NewRegistry(),
	}
}

func testTuple() types.Tuple {
	return types.Tuple{types.Int(10), types.Str("1998-06-15"), types.Float(2.5)}
}

// run compiles e against env and evaluates it on testTuple: an error at
// compile time and an error on the row come back alike.
func run(e Expr, env *Env) (types.Value, error) {
	c, err := Compile(e, env)
	if err != nil {
		return types.Null(), err
	}
	return c(testTuple())
}

func eval(t *testing.T, e Expr) types.Value {
	t.Helper()
	v, err := run(e, testEnv())
	if err != nil {
		t.Fatalf("%s: %v", e.SQL(), err)
	}
	return v
}

func TestColumnEval(t *testing.T) {
	if v := eval(t, &Column{Qualifier: "o", Name: "k"}); v.I() != 10 {
		t.Errorf("o.k = %v", v)
	}
	// Bare name resolution.
	if v := eval(t, &Column{Name: "d"}); v.S != "1998-06-15" {
		t.Errorf("d = %v", v)
	}
	// Missing column errors.
	if _, err := run(&Column{Name: "zz"}, testEnv()); err == nil {
		t.Error("missing column did not error")
	}
}

func TestLiteralParam(t *testing.T) {
	if v := eval(t, &Literal{Val: types.Int(7)}); v.I() != 7 {
		t.Errorf("literal = %v", v)
	}
	if v := eval(t, &Param{Name: "year"}); v.I() != 1998 {
		t.Errorf("param = %v", v)
	}
	if _, err := run(&Param{Name: "missing"}, testEnv()); err == nil {
		t.Error("unbound param did not error")
	}
	env := testEnv()
	env.Params = nil
	if _, err := run(&Param{Name: "year"}, env); err == nil {
		t.Error("nil params did not error")
	}
}

func TestCompareOps(t *testing.T) {
	k := &Column{Qualifier: "o", Name: "k"} // = 10
	cases := []struct {
		op   CmpOp
		rhs  int64
		want bool
	}{
		{CmpEq, 10, true}, {CmpEq, 9, false},
		{CmpNe, 9, true}, {CmpNe, 10, false},
		{CmpLt, 11, true}, {CmpLt, 10, false},
		{CmpLe, 10, true}, {CmpLe, 9, false},
		{CmpGt, 9, true}, {CmpGt, 10, false},
		{CmpGe, 10, true}, {CmpGe, 11, false},
	}
	for _, c := range cases {
		e := &Compare{Op: c.op, L: k, R: &Literal{Val: types.Int(c.rhs)}}
		if got := eval(t, e).IsTrue(); got != c.want {
			t.Errorf("10 %s %d = %v, want %v", c.op, c.rhs, got, c.want)
		}
	}
}

func TestCompareNullIsFalse(t *testing.T) {
	e := &Compare{Op: CmpEq, L: &Literal{Val: types.Null()}, R: &Literal{Val: types.Null()}}
	if eval(t, e).IsTrue() {
		t.Error("NULL = NULL evaluated true")
	}
}

func TestBetween(t *testing.T) {
	k := &Column{Qualifier: "o", Name: "k"}
	in := &Between{X: k, Lo: &Literal{Val: types.Int(5)}, Hi: &Literal{Val: types.Int(15)}}
	out := &Between{X: k, Lo: &Literal{Val: types.Int(11)}, Hi: &Literal{Val: types.Int(15)}}
	edge := &Between{X: k, Lo: &Literal{Val: types.Int(10)}, Hi: &Literal{Val: types.Int(10)}}
	if !eval(t, in).IsTrue() || eval(t, out).IsTrue() || !eval(t, edge).IsTrue() {
		t.Error("BETWEEN semantics wrong")
	}
}

func TestBooleanConnectives(t *testing.T) {
	tr := &Literal{Val: types.Bool(true)}
	fa := &Literal{Val: types.Bool(false)}
	if !eval(t, &And{Kids: []Expr{tr, tr}}).IsTrue() {
		t.Error("true AND true")
	}
	if eval(t, &And{Kids: []Expr{tr, fa}}).IsTrue() {
		t.Error("true AND false")
	}
	if !eval(t, &Or{Kids: []Expr{fa, tr}}).IsTrue() {
		t.Error("false OR true")
	}
	if eval(t, &Or{Kids: []Expr{fa, fa}}).IsTrue() {
		t.Error("false OR false")
	}
	if !eval(t, &Not{Kid: fa}).IsTrue() || eval(t, &Not{Kid: tr}).IsTrue() {
		t.Error("NOT semantics")
	}
}

func TestArith(t *testing.T) {
	two := &Literal{Val: types.Int(2)}
	three := &Literal{Val: types.Int(3)}
	cases := []struct {
		op   ArithOp
		want int64
	}{
		{ArithAdd, 5}, {ArithSub, -1}, {ArithMul, 6}, {ArithDiv, 0},
	}
	for _, c := range cases {
		v := eval(t, &Arith{Op: c.op, L: two, R: three})
		if got, _ := v.AsInt(); got != c.want {
			t.Errorf("2 %s 3 = %v, want %d", c.op, v, c.want)
		}
	}
	// Float promotion.
	v := eval(t, &Arith{Op: ArithMul, L: &Column{Name: "p"}, R: two})
	if f, _ := v.AsFloat(); f != 5.0 {
		t.Errorf("2.5*2 = %v", v)
	}
	// Division by zero.
	if _, err := run(&Arith{Op: ArithDiv, L: two, R: &Literal{Val: types.Int(0)}}, testEnv()); err == nil {
		t.Error("int division by zero did not error")
	}
	if _, err := run(&Arith{Op: ArithDiv, L: two, R: &Literal{Val: types.Float(0)}}, testEnv()); err == nil {
		t.Error("float division by zero did not error")
	}
	// Non-numeric.
	if _, err := run(&Arith{Op: ArithAdd, L: &Column{Name: "d"}, R: two}, testEnv()); err == nil {
		t.Error("string arithmetic did not error")
	}
}

func TestCallBuiltins(t *testing.T) {
	y := &Call{Name: "myyear", Args: []Expr{&Column{Name: "d"}}}
	if v := eval(t, y); v.I() != 1998 {
		t.Errorf("myyear = %v", v)
	}
	s := &Call{Name: "mysub", Args: []Expr{&Literal{Val: types.Str("Brand#32")}}}
	if v := eval(t, s); v.S != "#3" {
		t.Errorf("mysub = %v", v)
	}
	r := &Call{Name: "myrand", Args: []Expr{&Literal{Val: types.Int(1998)}, &Literal{Val: types.Int(2000)}}}
	v1 := eval(t, r)
	v2 := eval(t, r)
	if v1.I() < 1998 || v1.I() > 2000 {
		t.Errorf("myrand out of range: %v", v1)
	}
	if v1.I() != v2.I() {
		t.Error("myrand not deterministic per bounds")
	}
	if _, err := run(&Call{Name: "nope"}, testEnv()); err == nil {
		t.Error("unknown UDF did not error")
	}
}

func TestUDFRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(UDF{}); err == nil {
		t.Error("empty UDF registered")
	}
	err := r.Register(UDF{Name: "Twice", Fn: func(a []types.Value) (types.Value, error) {
		return types.Int(a[0].I() * 2), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("twice"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := r.Lookup("TWICE"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	names := r.Names()
	found := false
	for _, n := range names {
		if n == "twice" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v missing twice", names)
	}
}

func TestSQLRendering(t *testing.T) {
	e := &And{Kids: []Expr{
		&Compare{Op: CmpEq, L: &Column{Qualifier: "o", Name: "k"}, R: &Param{Name: "x"}},
		&Between{X: &Column{Name: "p"}, Lo: &Literal{Val: types.Int(1)}, Hi: &Literal{Val: types.Int(2)}},
		&Not{Kid: &Call{Name: "udf", Args: []Expr{&Column{Name: "d"}}}},
	}}
	got := e.SQL()
	for _, want := range []string{"o.k = $x", "p BETWEEN 1 AND 2", "NOT (udf(d))"} {
		if !strings.Contains(got, want) {
			t.Errorf("SQL() = %q missing %q", got, want)
		}
	}
	o := &Or{Kids: []Expr{&Literal{Val: types.Bool(true)}, &Literal{Val: types.Bool(false)}}}
	if !strings.Contains(o.SQL(), " OR ") {
		t.Errorf("Or SQL = %q", o.SQL())
	}
	a := &Arith{Op: ArithDiv, L: &Literal{Val: types.Int(4)}, R: &Literal{Val: types.Int(2)}}
	if a.SQL() != "(4 / 2)" {
		t.Errorf("Arith SQL = %q", a.SQL())
	}
}

func TestMyyearEdgeCases(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("myyear")
	if _, err := f.Fn([]types.Value{types.Str("ab")}); err == nil {
		t.Error("short date did not error")
	}
	if _, err := f.Fn([]types.Value{types.Str("abcd-01-01")}); err == nil {
		t.Error("non-digit year did not error")
	}
	if v, err := f.Fn([]types.Value{types.Null()}); err != nil || !v.IsNull() {
		t.Error("NULL input should pass through")
	}
	if _, err := f.Fn(nil); err == nil {
		t.Error("arity error not raised")
	}
}

func TestMysubEdgeCases(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("mysub")
	if v, _ := f.Fn([]types.Value{types.Str("nohash")}); v.S != "" {
		t.Errorf("mysub without # = %v", v)
	}
	if _, err := f.Fn([]types.Value{types.Int(3)}); err == nil {
		t.Error("non-string did not error")
	}
}
