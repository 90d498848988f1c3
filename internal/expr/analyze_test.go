package expr

import (
	"fmt"
	"math"
	"testing"

	"dynopt/internal/stats"
	"dynopt/internal/types"
)

func TestColumnsOfAndQualifiers(t *testing.T) {
	e := &And{Kids: []Expr{
		&Compare{Op: CmpEq, L: &Column{Qualifier: "a", Name: "x"}, R: &Column{Qualifier: "b", Name: "y"}},
		&Call{Name: "f", Args: []Expr{&Column{Qualifier: "a", Name: "z"}}},
	}}
	cols := ColumnsOf(e)
	if len(cols) != 3 {
		t.Fatalf("ColumnsOf = %d cols", len(cols))
	}
	qs := QualifiersOf(e)
	if !qs["a"] || !qs["b"] || len(qs) != 2 {
		t.Errorf("QualifiersOf = %v", qs)
	}
}

func TestIsComplex(t *testing.T) {
	simple := &Compare{Op: CmpEq, L: &Column{Name: "x"}, R: &Literal{Val: types.Int(1)}}
	udf := &Compare{Op: CmpEq, L: &Call{Name: "f", Args: []Expr{&Column{Name: "x"}}}, R: &Literal{Val: types.Int(1)}}
	param := &Compare{Op: CmpEq, L: &Column{Name: "x"}, R: &Param{Name: "p"}}
	if IsComplex(simple) {
		t.Error("simple predicate reported complex")
	}
	if !IsComplex(udf) {
		t.Error("UDF predicate not complex")
	}
	if !IsComplex(param) {
		t.Error("param predicate not complex")
	}
}

func TestCompileMatchesEval(t *testing.T) {
	env := testEnv()
	exprs := []Expr{
		&Compare{Op: CmpGt, L: &Column{Qualifier: "o", Name: "k"}, R: &Literal{Val: types.Int(5)}},
		&Between{X: &Column{Name: "p"}, Lo: &Literal{Val: types.Float(1)}, Hi: &Literal{Val: types.Float(3)}},
		&And{Kids: []Expr{
			&Compare{Op: CmpEq, L: &Column{Name: "k"}, R: &Literal{Val: types.Int(10)}},
			&Not{Kid: &Compare{Op: CmpEq, L: &Column{Name: "d"}, R: &Literal{Val: types.Str("x")}}},
		}},
		&Or{Kids: []Expr{
			&Compare{Op: CmpLt, L: &Column{Name: "k"}, R: &Literal{Val: types.Int(0)}},
			&Compare{Op: CmpEq, L: &Param{Name: "year"}, R: &Literal{Val: types.Int(1998)}},
		}},
		&Compare{Op: CmpEq, L: &Call{Name: "myyear", Args: []Expr{&Column{Name: "d"}}}, R: &Param{Name: "year"}},
	}
	for _, e := range exprs {
		c, err := Compile(e, env)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e.SQL(), err)
		}
		want, err1 := e.Eval(testTuple(), env)
		got, err2 := c(testTuple())
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%s: err mismatch %v vs %v", e.SQL(), err1, err2)
			continue
		}
		if err1 == nil && !want.Equal(got) {
			t.Errorf("%s: compiled %v, interpreted %v", e.SQL(), got, want)
		}
	}
}

func TestCompileUnboundParamErrors(t *testing.T) {
	env := testEnv()
	if _, err := Compile(&Param{Name: "nope"}, env); err == nil {
		t.Error("Compile of unbound param did not error")
	}
}

func TestCompileMissingColumnFallsBack(t *testing.T) {
	env := testEnv()
	c, err := Compile(&Column{Name: "missing"}, env)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := c(testTuple()); err == nil {
		t.Error("compiled missing column should error at eval")
	}
}

func uniformDS(t *testing.T, name string, n, distinct int) *stats.DatasetStats {
	t.Helper()
	ds := stats.NewDatasetStats(name)
	sch := types.NewSchema(types.Field{Name: "v", Kind: types.KindInt})
	for i := 0; i < n; i++ {
		ds.ObserveTuple(sch, types.Tuple{types.Int(int64(i % distinct))}, nil)
	}
	return ds
}

func TestStaticSelectivitySimplePredicate(t *testing.T) {
	ds := uniformDS(t, "t", 10000, 100)
	e := &Compare{Op: CmpEq, L: &Column{Name: "v"}, R: &Literal{Val: types.Int(5)}}
	got := StaticSelectivity(e, ds)
	if math.Abs(got-0.01) > 0.01 {
		t.Errorf("eq selectivity = %v, want ~0.01", got)
	}
	lt := &Compare{Op: CmpLt, L: &Column{Name: "v"}, R: &Literal{Val: types.Int(50)}}
	got = StaticSelectivity(lt, ds)
	if math.Abs(got-0.5) > 0.1 {
		t.Errorf("lt selectivity = %v, want ~0.5", got)
	}
	// Literal on the left flips the operator.
	ltFlip := &Compare{Op: CmpGt, L: &Literal{Val: types.Int(50)}, R: &Column{Name: "v"}}
	got2 := StaticSelectivity(ltFlip, ds)
	if math.Abs(got2-got) > 0.05 {
		t.Errorf("flipped literal selectivity %v != %v", got2, got)
	}
}

func TestStaticSelectivityIndependenceMultiplied(t *testing.T) {
	ds := uniformDS(t, "t", 10000, 100)
	one := &Compare{Op: CmpLt, L: &Column{Name: "v"}, R: &Literal{Val: types.Int(50)}}
	two := &And{Kids: []Expr{one, one}}
	s1 := StaticSelectivity(one, ds)
	s2 := StaticSelectivity(two, ds)
	if math.Abs(s2-s1*s1) > 1e-9 {
		t.Errorf("AND selectivity %v != %v^2 (independence)", s2, s1)
	}
	// This is exactly the estimate that correlated predicates break —
	// the true selectivity of (v<50 AND v<50) is s1, not s1².
}

func TestStaticSelectivityComplexUsesDefault(t *testing.T) {
	ds := uniformDS(t, "t", 1000, 10)
	udf := &Compare{Op: CmpEq, L: &Call{Name: "f", Args: []Expr{&Column{Name: "v"}}}, R: &Literal{Val: types.Str("#3")}}
	if got := StaticSelectivity(udf, ds); got != stats.DefaultUDFSelectivity {
		t.Errorf("UDF selectivity = %v, want default %v", got, stats.DefaultUDFSelectivity)
	}
	param := &Compare{Op: CmpEq, L: &Column{Name: "v"}, R: &Param{Name: "p"}}
	if got := StaticSelectivity(param, ds); got != stats.DefaultUDFSelectivity {
		t.Errorf("param selectivity = %v, want default", got)
	}
	bare := &Call{Name: "boolUDF", Args: []Expr{&Column{Name: "v"}}}
	if got := StaticSelectivity(bare, ds); got != stats.DefaultUDFSelectivity {
		t.Errorf("bare call selectivity = %v", got)
	}
}

func TestStaticSelectivityBetween(t *testing.T) {
	ds := uniformDS(t, "t", 10000, 100)
	b := &Between{X: &Column{Name: "v"}, Lo: &Literal{Val: types.Int(25)}, Hi: &Literal{Val: types.Int(74)}}
	got := StaticSelectivity(b, ds)
	if math.Abs(got-0.5) > 0.1 {
		t.Errorf("between selectivity = %v, want ~0.5", got)
	}
	// Complex BETWEEN → default.
	bc := &Between{X: &Column{Name: "v"}, Lo: &Param{Name: "lo"}, Hi: &Literal{Val: types.Int(74)}}
	if got := StaticSelectivity(bc, ds); got != stats.DefaultUDFSelectivity {
		t.Errorf("param between = %v", got)
	}
	// Non-numeric bounds → inequality default.
	bs := &Between{X: &Column{Name: "v"}, Lo: &Literal{Val: types.Str("a")}, Hi: &Literal{Val: types.Str("z")}}
	if got := StaticSelectivity(bs, ds); got != stats.DefaultIneqSelectivity {
		t.Errorf("string between = %v", got)
	}
}

func TestStaticSelectivityOrNot(t *testing.T) {
	ds := uniformDS(t, "t", 10000, 100)
	half := &Compare{Op: CmpLt, L: &Column{Name: "v"}, R: &Literal{Val: types.Int(50)}}
	or := &Or{Kids: []Expr{half, half}}
	got := StaticSelectivity(or, ds)
	want := 1 - 0.5*0.5
	if math.Abs(got-want) > 0.1 {
		t.Errorf("OR selectivity = %v, want ~%v", got, want)
	}
	not := &Not{Kid: half}
	if got := StaticSelectivity(not, ds); math.Abs(got-0.5) > 0.1 {
		t.Errorf("NOT selectivity = %v", got)
	}
}

func TestStaticSelectivityNoStats(t *testing.T) {
	e := &Compare{Op: CmpEq, L: &Column{Name: "v"}, R: &Literal{Val: types.Int(5)}}
	if got := StaticSelectivity(e, nil); got != stats.DefaultEqSelectivity {
		t.Errorf("nil-stats selectivity = %v", got)
	}
	colcol := &Compare{Op: CmpEq, L: &Column{Name: "a"}, R: &Column{Name: "b"}}
	if got := StaticSelectivity(colcol, nil); got != stats.DefaultEqSelectivity {
		t.Errorf("col=col selectivity = %v", got)
	}
}

// TestCompiledCallMatchesEval holds the compiled UDF call to the interpreted
// one on normal, NULL and malformed input: the same value, or the same error
// text — including the calls Compile cannot resolve (no registry, unknown
// name, unknown column), which keep the interpreted path.
func TestCompiledCallMatchesEval(t *testing.T) {
	env := testEnv()
	noUDFs := *env
	noUDFs.UDFs = nil
	col := func(name string) Expr { return &Column{Qualifier: "o", Name: name} }
	lit := func(v types.Value) Expr { return &Literal{Val: v} }
	calls := []struct {
		env  *Env
		call *Call
	}{
		{env, &Call{Name: "myyear", Args: []Expr{col("d")}}},
		{env, &Call{Name: "MyYear", Args: []Expr{col("d")}}},
		{env, &Call{Name: "myyear", Args: []Expr{col("k")}}},
		{env, &Call{Name: "myyear"}},
		{env, &Call{Name: "mysub", Args: []Expr{col("d")}}},
		{env, &Call{Name: "mysub", Args: []Expr{lit(types.Str("Brand#32"))}}},
		{env, &Call{Name: "mysub", Args: []Expr{col("p")}}},
		{env, &Call{Name: "myrand", Args: []Expr{col("k"), lit(types.Int(20))}}},
		{env, &Call{Name: "myrand", Args: []Expr{col("p"), &Param{Name: "year"}}}},
		{env, &Call{Name: "myrand", Args: []Expr{col("d"), col("k")}}},
		{env, &Call{Name: "myrand", Args: []Expr{col("k")}}},
		{env, &Call{Name: "myyear", Args: []Expr{col("missing")}}},
		{env, &Call{Name: "myrand", Args: []Expr{col("k"), &Param{Name: "unbound"}}}},
		{env, &Call{Name: "nosuchudf", Args: []Expr{col("d")}}},
		{&noUDFs, &Call{Name: "myyear", Args: []Expr{col("d")}}},
	}
	tuples := []types.Tuple{
		testTuple(),
		{types.Null(), types.Null(), types.Null()},
		{types.Int(-3), types.Str("19x8-01-01"), types.Float(7.5)},
		{types.Int(0), types.Str("98"), types.Float(-1)},
		{types.Int(1 << 40), types.Str("Brand#"), types.Float(2)},
	}
	for _, tc := range calls {
		c, err := Compile(tc.call, tc.env)
		if err != nil {
			t.Fatalf("Compile(%s): %v", tc.call.SQL(), err)
		}
		for _, tup := range tuples {
			want, werr := tc.call.Eval(tup, tc.env)
			got, gerr := c(tup)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Errorf("%s on %v: compiled error %v, interpreted %v", tc.call.SQL(), tup, gerr, werr)
				continue
			}
			if got.K != want.K || !got.Equal(want) && !(got.IsNull() && want.IsNull()) {
				t.Errorf("%s on %v: compiled %v, interpreted %v", tc.call.SQL(), tup, got, want)
			}
		}
	}
}
