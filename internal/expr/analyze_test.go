package expr

import (
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

// outcome renders an evaluation with its kind, so int 5 and float 5.0
// differ, or its error text.
func outcome(v types.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return v.K.String() + " " + v.String()
}

// TestCompileMatchesEval holds Compile to the values and error texts the
// tree-walking interpreter it replaced returned for the same inputs,
// recorded before that interpreter was deleted. Row-time errors (an unknown
// or ambiguous column, an unregistered UDF, a missing registry) must stay
// row-time: Compile itself succeeds.
func TestCompileMatchesEval(t *testing.T) {
	env := testEnv()
	noUDFs := *env
	noUDFs.UDFs = nil
	dup := &Env{Schema: types.NewSchema(
		types.Field{Qualifier: "a", Name: "x", Kind: types.KindInt},
		types.Field{Qualifier: "b", Name: "x", Kind: types.KindInt},
	)}
	dupRow := types.Tuple{types.Int(1), types.Int(2)}
	i := func(n int64) Expr { return &Literal{Val: types.Int(n)} }
	f := func(x float64) Expr { return &Literal{Val: types.Float(x)} }
	k := &Column{Qualifier: "o", Name: "k"}
	p := &Column{Name: "p"}
	d := &Column{Name: "d"}
	null := &Literal{Val: types.Null()}
	schemaText := "(o.k int, o.d string, o.p float)"
	cases := []struct {
		env  *Env
		e    Expr
		row  types.Tuple // nil: testTuple()
		want string
	}{
		{env, &Compare{Op: CmpGt, L: &Column{Qualifier: "o", Name: "k"}, R: &Literal{Val: types.Int(5)}}, nil, "bool true"},
		{env, &Between{X: &Column{Name: "p"}, Lo: &Literal{Val: types.Float(1)}, Hi: &Literal{Val: types.Float(3)}}, nil, "bool true"},
		{env, &And{Kids: []Expr{
			&Compare{Op: CmpEq, L: &Column{Name: "k"}, R: &Literal{Val: types.Int(10)}},
			&Not{Kid: &Compare{Op: CmpEq, L: &Column{Name: "d"}, R: &Literal{Val: types.Str("x")}}},
		}}, nil, "bool true"},
		{env, &Or{Kids: []Expr{
			&Compare{Op: CmpLt, L: &Column{Name: "k"}, R: &Literal{Val: types.Int(0)}},
			&Compare{Op: CmpEq, L: &Param{Name: "year"}, R: &Literal{Val: types.Int(1998)}},
		}}, nil, "bool true"},
		{env, &Compare{Op: CmpEq, L: &Call{Name: "myyear", Args: []Expr{&Column{Name: "d"}}}, R: &Param{Name: "year"}}, nil, "bool true"},
		// Arith: ints stay ints, any float promotes, NULL in gives NULL out.
		{env, &Arith{Op: ArithAdd, L: k, R: i(3)}, nil, "int 13"},
		{env, &Arith{Op: ArithSub, L: i(2), R: k}, nil, "int -8"},
		{env, &Arith{Op: ArithMul, L: k, R: &Param{Name: "year"}}, nil, "int 19980"},
		{env, &Arith{Op: ArithDiv, L: k, R: i(3)}, nil, "int 3"},
		{env, &Arith{Op: ArithMul, L: p, R: i(2)}, nil, "float 5"},
		{env, &Arith{Op: ArithDiv, L: k, R: f(4)}, nil, "float 2.5"},
		{env, &Arith{Op: ArithSub, L: p, R: p}, nil, "float 0"},
		{env, &Arith{Op: ArithAdd, L: k, R: null}, nil, "null NULL"},
		{env, &Arith{Op: ArithDiv, L: null, R: i(0)}, nil, "null NULL"},
		{env, &Arith{Op: ArithDiv, L: k, R: i(0)}, nil, "error: expr: division by zero"},
		{env, &Arith{Op: ArithDiv, L: p, R: f(0)}, nil, "error: expr: division by zero"},
		{env, &Arith{Op: ArithAdd, L: d, R: i(2)}, nil, "error: expr: arithmetic on non-numeric values '1998-06-15' + 2"},
		{env, &Compare{Op: CmpEq, L: &Arith{Op: ArithAdd, L: k, R: i(1)}, R: i(11)}, nil, "bool true"},
		// Unknown and ambiguous columns.
		{env, &Column{Name: "zz"}, nil, `error: expr: unknown column "zz" in schema ` + schemaText},
		{env, &Compare{Op: CmpEq, L: &Column{Qualifier: "q", Name: "k"}, R: i(1)}, nil, `error: expr: unknown column "q.k" in schema ` + schemaText},
		{dup, &Column{Name: "x"}, dupRow, `error: expr: unknown column "x" in schema (a.x int, b.x int)`},
		{dup, &Column{Qualifier: "b", Name: "x"}, dupRow, "int 2"},
		// An unregistered UDF and a missing registry.
		{env, &Call{Name: "nope", Args: []Expr{k}}, nil, `error: expr: UDF "nope" not registered`},
		{&noUDFs, &Call{Name: "myyear", Args: []Expr{d}}, nil, "error: expr: no UDF registry, wanted myyear()"},
		{&noUDFs, &Not{Kid: &Call{Name: "myyear", Args: []Expr{d}}}, nil, "error: expr: no UDF registry, wanted myyear()"},
	}
	for _, c := range cases {
		compiled, err := Compile(c.e, c.env)
		if err != nil {
			t.Fatalf("Compile(%s): %v", c.e.SQL(), err)
		}
		row := c.row
		if row == nil {
			row = testTuple()
		}
		if got := outcome(compiled(row)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e.SQL(), got, c.want)
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
	ds := stats.NewIngestStats(name) // base statistics: StaticSelectivity reads their histograms
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

// TestCompiledCallMatchesEval holds the compiled UDF call to the value or
// error text the interpreter it replaced returned on normal, NULL and
// malformed input (recorded before that interpreter was deleted) —
// including the calls that cannot resolve (no registry, unknown name,
// unknown column, unbound parameter), which fail row by row.
func TestCompiledCallMatchesEval(t *testing.T) {
	env := testEnv()
	noUDFs := *env
	noUDFs.UDFs = nil
	col := func(name string) Expr { return &Column{Qualifier: "o", Name: name} }
	lit := func(v types.Value) Expr { return &Literal{Val: v} }
	tuples := []types.Tuple{
		testTuple(),
		{types.Null(), types.Null(), types.Null()},
		{types.Int(-3), types.Str("19x8-01-01"), types.Float(7.5)},
		{types.Int(0), types.Str("98"), types.Float(-1)},
		{types.Int(1 << 40), types.Str("Brand#"), types.Float(2)},
	}
	same := func(s string) [5]string { return [5]string{s, s, s, s, s} }
	missing := `error: expr: unknown column "o.missing" in schema (o.k int, o.d string, o.p float)`
	myyearD := [5]string{
		"int 1998",
		"null NULL",
		`error: myyear: malformed date "19x8-01-01"`,
		"error: myyear: want a date string, got '98'",
		`error: myyear: malformed date "Brand#"`,
	}
	calls := []struct {
		env  *Env
		call *Call
		want [5]string // one per tuple
	}{
		{env, &Call{Name: "myyear", Args: []Expr{col("d")}}, myyearD},
		{env, &Call{Name: "MyYear", Args: []Expr{col("d")}}, myyearD},
		{env, &Call{Name: "myyear", Args: []Expr{col("k")}}, [5]string{
			"error: myyear: want a date string, got 10",
			"null NULL",
			"error: myyear: want a date string, got -3",
			"error: myyear: want a date string, got 0",
			"error: myyear: want a date string, got 1099511627776",
		}},
		{env, &Call{Name: "myyear"}, same("error: myyear: want 1 arg, got 0")},
		{env, &Call{Name: "mysub", Args: []Expr{col("d")}}, [5]string{
			"string ''", "null NULL", "string ''", "string ''", "string ''",
		}},
		{env, &Call{Name: "mysub", Args: []Expr{lit(types.Str("Brand#32"))}}, same("string '#3'")},
		{env, &Call{Name: "mysub", Args: []Expr{col("p")}}, [5]string{
			"error: mysub: want a string, got 2.5",
			"null NULL",
			"error: mysub: want a string, got 7.5",
			"error: mysub: want a string, got -1",
			"error: mysub: want a string, got 2",
		}},
		{env, &Call{Name: "myrand", Args: []Expr{col("k"), lit(types.Int(20))}}, [5]string{
			"int 19",
			"error: myrand: want numeric bounds, got NULL, 20",
			"int 1",
			"int 12",
			"int 455843649724",
		}},
		{env, &Call{Name: "myrand", Args: []Expr{col("p"), &Param{Name: "year"}}}, [5]string{
			"int 202",
			"error: myrand: want numeric bounds, got NULL, 1998",
			"int 8",
			"int 311",
			"int 202",
		}},
		{env, &Call{Name: "myrand", Args: []Expr{col("d"), col("k")}}, [5]string{
			"error: myrand: want numeric bounds, got '1998-06-15', 10",
			"error: myrand: want numeric bounds, got NULL, NULL",
			"error: myrand: want numeric bounds, got '19x8-01-01', -3",
			"error: myrand: want numeric bounds, got '98', 0",
			"error: myrand: want numeric bounds, got 'Brand#', 1099511627776",
		}},
		{env, &Call{Name: "myrand", Args: []Expr{col("k")}}, same("error: myrand: want 2 args, got 1")},
		{env, &Call{Name: "myyear", Args: []Expr{col("missing")}}, same(missing)},
		{env, &Call{Name: "myrand", Args: []Expr{col("k"), &Param{Name: "unbound"}}}, same("error: expr: parameter $unbound not bound")},
		{env, &Call{Name: "nosuchudf", Args: []Expr{col("d")}}, same(`error: expr: UDF "nosuchudf" not registered`)},
		{&noUDFs, &Call{Name: "myyear", Args: []Expr{col("d")}}, same("error: expr: no UDF registry, wanted myyear()")},
	}
	for _, tc := range calls {
		c, err := Compile(tc.call, tc.env)
		if err != nil {
			t.Fatalf("Compile(%s): %v", tc.call.SQL(), err)
		}
		for i, tup := range tuples {
			if got := outcome(c(tup)); got != tc.want[i] {
				t.Errorf("%s on %v = %s, want %s", tc.call.SQL(), tup, got, tc.want[i])
			}
		}
	}
}
