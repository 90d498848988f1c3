package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynopt/internal/types"
)

// vecTestSchema covers every vectorizable kind twice (col-col kernels need
// same-kind and cross-numeric pairs) plus a bool column the kernels must
// refuse. Column "m" is declared int but the row generator salts it with
// strings, forcing the runtime Mixed fallback.
func vecTestSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Qualifier: "t", Name: "a", Kind: types.KindInt},
		types.Field{Qualifier: "t", Name: "b", Kind: types.KindInt},
		types.Field{Qualifier: "t", Name: "f", Kind: types.KindFloat},
		types.Field{Qualifier: "t", Name: "g", Kind: types.KindFloat},
		types.Field{Qualifier: "t", Name: "s", Kind: types.KindString},
		types.Field{Qualifier: "t", Name: "u", Kind: types.KindString},
		types.Field{Qualifier: "t", Name: "w", Kind: types.KindBool},
		types.Field{Qualifier: "t", Name: "m", Kind: types.KindInt},
	)
}

func vecTestRows(r *rand.Rand, n int) []types.Tuple {
	strs := []string{"", "ab", "abc", "zzz", "k"}
	rows := make([]types.Tuple, n)
	for i := range rows {
		val := func(mk func() types.Value) types.Value {
			if r.Intn(6) == 0 {
				return types.Null()
			}
			return mk()
		}
		num := func() types.Value { return types.Int(int64(r.Intn(20) - 10)) }
		flt := func() types.Value {
			switch r.Intn(4) {
			case 0:
				return types.Float(math.NaN())
			case 1:
				return types.Float(float64(r.Intn(20) - 10)) // integral
			default:
				return types.Float(r.Float64()*20 - 10)
			}
		}
		str := func() types.Value { return types.Str(strs[r.Intn(len(strs))]) }
		mixed := func() types.Value {
			if r.Intn(3) == 0 {
				return types.Str("stray")
			}
			return types.Int(int64(r.Intn(10)))
		}
		rows[i] = types.Tuple{
			val(num), val(num), val(flt), val(flt), val(str), val(str),
			val(func() types.Value { return types.Bool(r.Intn(2) == 0) }),
			val(mixed),
		}
	}
	return rows
}

// randPredTree draws a random predicate over vecTestSchema: comparisons in
// every operand arrangement (col-const, const-col, col-col, const-const),
// BETWEEN, boolean combinators, plus Param and UDF Call leaves that force
// the per-node scalar fallback.
func randPredTree(r *rand.Rand, depth int) Expr {
	col := func() Expr {
		names := []string{"a", "b", "f", "g", "s", "u", "w", "m"}
		return &Column{Qualifier: "t", Name: names[r.Intn(len(names))]}
	}
	lit := func() Expr {
		switch r.Intn(5) {
		case 0:
			return &Literal{Val: types.Int(int64(r.Intn(20) - 10))}
		case 1:
			return &Literal{Val: types.Float(r.Float64()*20 - 10)}
		case 2:
			return &Literal{Val: types.Str("abc")}
		case 3:
			return &Literal{Val: types.Null()}
		default:
			return &Param{Name: "p"}
		}
	}
	operand := func() Expr {
		if r.Intn(3) == 0 {
			return lit()
		}
		return col()
	}
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &Compare{Op: ops[r.Intn(len(ops))], L: operand(), R: operand()}
		case 1:
			return &Between{X: operand(), Lo: operand(), Hi: operand()}
		case 2:
			// UDF leaf: vectorization must route it through the scalar
			// closure without touching its semantics.
			return &Compare{Op: CmpEq,
				L: &Call{Name: "vtestmod", Args: []Expr{col(), &Literal{Val: types.Int(3)}}},
				R: &Literal{Val: types.Int(0)}}
		default:
			return &Compare{Op: ops[r.Intn(len(ops))], L: col(), R: col()}
		}
	}
	kids := func(n int) []Expr {
		out := make([]Expr, n)
		for i := range out {
			out[i] = randPredTree(r, depth-1)
		}
		return out
	}
	switch r.Intn(3) {
	case 0:
		return &And{Kids: kids(2 + r.Intn(2))}
	case 1:
		return &Or{Kids: kids(2 + r.Intn(2))}
	default:
		return &Not{Kid: randPredTree(r, depth - 1)}
	}
}

// TestVecPredMatchesEval is the kernel equivalence property: for random
// predicate trees, rows, and selection vectors, the vectorized kernel keeps
// exactly the rows whose scalar Compile closure returns true — across all value kinds,
// NULLs, NaN, mixed-kind columns (runtime fallback), Params, and UDF leaves
// (compile-time fallback).
func TestVecPredMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	udfs := NewRegistry()
	if err := udfs.Register(UDF{Name: "vtestmod", Fn: func(args []types.Value) (types.Value, error) {
		if args[0].IsNull() {
			return types.Null(), nil
		}
		return types.Int(args[0].I() % args[1].I()), nil
	}}); err != nil {
		t.Fatal(err)
	}
	schema := vecTestSchema()
	env := &Env{Schema: schema, Params: map[string]types.Value{"p": types.Int(2)}, UDFs: udfs}
	vectorized := 0
	for trial := 0; trial < 300; trial++ {
		tree := randPredTree(r, 3)
		k, ok, err := CompileVec(tree, env)
		if err != nil {
			t.Fatalf("trial %d: CompileVec: %v", trial, err)
		}
		if !ok {
			continue
		}
		vectorized++
		ref, err := Compile(tree, env)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		rows := vecTestRows(r, 1+r.Intn(120))
		cache := types.NewColCache(schema)
		cache.SetWindow(rows)
		// Input selections: full, empty, and a random subset.
		full := make([]int32, len(rows))
		for i := range full {
			full[i] = int32(i)
		}
		var subset []int32
		for i := range rows {
			if r.Intn(2) == 0 {
				subset = append(subset, int32(i))
			}
		}
		for name, sel := range map[string][]int32{"full": full, "empty": {}, "subset": subset} {
			var want []int32
			for _, ri := range sel {
				v, err := ref(rows[ri])
				if err != nil {
					t.Fatalf("trial %d: Compile closure: %v", trial, err)
				}
				if v.IsTrue() {
					want = append(want, ri)
				}
			}
			got, err := k(rows, cache, append([]int32(nil), sel...))
			if err != nil {
				t.Fatalf("trial %d %s: kernel: %v", trial, name, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d %s: kernel kept %v, Compile keeps %v\ntree rows=%d", trial, name, got, want, len(rows))
			}
		}
	}
	if vectorized < 100 {
		t.Fatalf("only %d/300 random trees vectorized; generator or compiler regressed", vectorized)
	}
}

// TestVecPredKernelReuse pins the buffer contract: a kernel may be invoked
// across many windows reusing its scratch, and results stay correct when
// the caller hands the same backing selection buffer every time.
func TestVecPredKernelReuse(t *testing.T) {
	schema := vecTestSchema()
	env := &Env{Schema: schema, Params: map[string]types.Value{"p": types.Int(2)}, UDFs: NewRegistry()}
	tree := &Or{Kids: []Expr{
		&Compare{Op: CmpGe, L: &Column{Qualifier: "t", Name: "a"}, R: &Literal{Val: types.Int(5)}},
		&Compare{Op: CmpLt, L: &Column{Qualifier: "t", Name: "f"}, R: &Literal{Val: types.Float(-5)}},
	}}
	k, ok, err := CompileVec(tree, env)
	if err != nil || !ok {
		t.Fatalf("CompileVec: ok=%v err=%v", ok, err)
	}
	ref, err := Compile(tree, env)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	sel := make([]int32, 0, 64)
	cache := types.NewColCache(schema)
	for w := 0; w < 20; w++ {
		rows := vecTestRows(r, 64)
		cache.SetWindow(rows)
		sel = sel[:0]
		for i := range rows {
			sel = append(sel, int32(i))
		}
		got, err := k(rows, cache, sel)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int32]bool{}
		for i, ri := range got {
			if seen[ri] {
				t.Fatalf("window %d: duplicate row %d in selection", w, ri)
			}
			seen[ri] = true
			if i > 0 && got[i-1] >= ri {
				t.Fatalf("window %d: selection not ascending: %v", w, got)
			}
			v, err := ref(rows[ri])
			if err != nil {
				t.Fatal(err)
			}
			if !v.IsTrue() {
				t.Fatalf("window %d: kernel kept row %d that Compile rejects", w, ri)
			}
		}
		for i := range rows {
			if seen[int32(i)] {
				continue
			}
			v, err := ref(rows[i])
			if err != nil {
				t.Fatal(err)
			}
			if v.IsTrue() {
				t.Fatalf("window %d: kernel dropped row %d that Compile accepts", w, i)
			}
		}
	}
}
