package expr

import (
	"fmt"

	"dynopt/internal/stats"
	"dynopt/internal/types"
)

// ColumnsOf returns every column reference in the expression, in visit order.
func ColumnsOf(e Expr) []*Column {
	var out []*Column
	e.Walk(func(n Expr) {
		if c, ok := n.(*Column); ok {
			out = append(out, c)
		}
	})
	return out
}

// QualifiersOf returns the set of dataset aliases the expression touches.
func QualifiersOf(e Expr) map[string]bool {
	out := map[string]bool{}
	for _, c := range ColumnsOf(e) {
		out[c.Qualifier] = true
	}
	return out
}

// IsComplex reports whether the predicate contains a UDF call or a query
// parameter — the paper's definition of a complex predicate (§5.1), whose
// selectivity a static optimizer cannot estimate.
func IsComplex(e Expr) bool {
	complex := false
	e.Walk(func(n Expr) {
		switch n.(type) {
		case *Call, *Param:
			complex = true
		}
	})
	return complex
}

// Compiled is an expression specialized against one schema: column lookups
// are resolved to positional indexes once, so the per-tuple hot path does no
// map or string work.
type Compiled func(t types.Tuple) (types.Value, error)

// Compile specializes e against the schema, resolving column references to
// tuple offsets. Params and UDFs are captured from env; an unbound parameter
// fails here. An unknown or ambiguous column, an unregistered UDF and a
// missing registry compile to a closure that fails on the first row, so an
// input with no rows still succeeds.
func Compile(e Expr, env *Env) (Compiled, error) {
	switch n := e.(type) {
	case *Column:
		i, ok := env.Schema.Index(n.key())
		if !ok {
			return failing(fmt.Errorf("expr: unknown column %q in schema %s", n.key(), env.Schema)), nil
		}
		return func(t types.Tuple) (types.Value, error) { return t[i], nil }, nil
	case *Literal, *Param:
		v, _, err := constOperand(e, env)
		if err != nil {
			return nil, err
		}
		return func(types.Tuple) (types.Value, error) { return v, nil }, nil
	case *Compare:
		op := n.Op
		// Hoist constant operands out of the per-row path: a filter like
		// pay >= 900 used to re-evaluate the literal's closure (and its
		// null check) for every row. With the constant folded at compile
		// time the row loop is one column load, one null test, one Compare.
		if cv, ok, err := constOperand(n.R, env); ok || err != nil {
			if err != nil {
				return nil, err
			}
			if i, ok := columnIndex(n.L, env); ok {
				return compareColConst(i, cv, op, false), nil
			}
		}
		if cv, ok, err := constOperand(n.L, env); ok || err != nil {
			if err != nil {
				return nil, err
			}
			if i, ok := columnIndex(n.R, env); ok {
				return compareColConst(i, cv, op, true), nil
			}
		}
		l, err := Compile(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.R, env)
		if err != nil {
			return nil, err
		}
		return func(t types.Tuple) (types.Value, error) {
			lv, err := l(t)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(t)
			if err != nil {
				return types.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Bool(false), nil
			}
			return types.Bool(cmpSatisfies(lv.Compare(rv), op)), nil
		}, nil
	case *Between:
		// The same hoist for BETWEEN's bounds: col BETWEEN lit AND lit is
		// the hot shape (every Figure-7 range filter), and the old form
		// re-fetched both bound values through closures per row.
		if xi, ok := columnIndex(n.X, env); ok {
			lov, lok, err := constOperand(n.Lo, env)
			if err != nil {
				return nil, err
			}
			hiv, hok, err := constOperand(n.Hi, env)
			if err != nil {
				return nil, err
			}
			if lok && hok {
				if lov.IsNull() || hiv.IsNull() {
					return func(types.Tuple) (types.Value, error) { return types.Bool(false), nil }, nil
				}
				return func(t types.Tuple) (types.Value, error) {
					xv := t[xi]
					if xv.IsNull() {
						return types.Bool(false), nil
					}
					return types.Bool(xv.Compare(lov) >= 0 && xv.Compare(hiv) <= 0), nil
				}, nil
			}
		}
		x, err := Compile(n.X, env)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(n.Lo, env)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(n.Hi, env)
		if err != nil {
			return nil, err
		}
		return func(t types.Tuple) (types.Value, error) {
			xv, err := x(t)
			if err != nil {
				return types.Null(), err
			}
			lov, err := lo(t)
			if err != nil {
				return types.Null(), err
			}
			hiv, err := hi(t)
			if err != nil {
				return types.Null(), err
			}
			if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
				return types.Bool(false), nil
			}
			return types.Bool(xv.Compare(lov) >= 0 && xv.Compare(hiv) <= 0), nil
		}, nil
	case *And:
		kids := make([]Compiled, len(n.Kids))
		for i, k := range n.Kids {
			c, err := Compile(k, env)
			if err != nil {
				return nil, err
			}
			kids[i] = c
		}
		return func(t types.Tuple) (types.Value, error) {
			for _, k := range kids {
				v, err := k(t)
				if err != nil {
					return types.Null(), err
				}
				if !v.IsTrue() {
					return types.Bool(false), nil
				}
			}
			return types.Bool(true), nil
		}, nil
	case *Or:
		kids := make([]Compiled, len(n.Kids))
		for i, k := range n.Kids {
			c, err := Compile(k, env)
			if err != nil {
				return nil, err
			}
			kids[i] = c
		}
		return func(t types.Tuple) (types.Value, error) {
			for _, k := range kids {
				v, err := k(t)
				if err != nil {
					return types.Null(), err
				}
				if v.IsTrue() {
					return types.Bool(true), nil
				}
			}
			return types.Bool(false), nil
		}, nil
	case *Not:
		k, err := Compile(n.Kid, env)
		if err != nil {
			return nil, err
		}
		return func(t types.Tuple) (types.Value, error) {
			v, err := k(t)
			if err != nil {
				return types.Null(), err
			}
			return types.Bool(!v.IsTrue()), nil
		}, nil
	case *Call:
		return compileCall(n, env), nil
	case *Arith:
		l, err := Compile(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Compile(n.R, env)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(t types.Tuple) (types.Value, error) {
			lv, err := l(t)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(t)
			if err != nil {
				return types.Null(), err
			}
			return arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

// failing is the closure of an expression whose error belongs to its rows.
func failing(err error) Compiled {
	return func(types.Tuple) (types.Value, error) { return types.Null(), err }
}

// compileCall resolves a UDF call once per scan, not per row: no registry
// lock, name folding or column lookup on the hot path. With no registry or
// an unknown name the call fails row by row without evaluating its
// arguments; an argument that does not compile (an unbound parameter) fails
// in its place, after the arguments before it.
func compileCall(n *Call, env *Env) Compiled {
	if env.UDFs == nil {
		return failing(fmt.Errorf("expr: no UDF registry, wanted %s()", n.Name))
	}
	fn, ok := env.UDFs.Lookup(n.Name)
	if !ok {
		return failing(fmt.Errorf("expr: UDF %q not registered", n.Name))
	}
	args := make([]Compiled, len(n.Args))
	for i, a := range n.Args {
		c, err := Compile(a, env)
		if err != nil {
			c = failing(err)
		}
		args[i] = c
	}
	return func(t types.Tuple) (types.Value, error) {
		vals := make([]types.Value, len(args))
		for i, a := range args {
			v, err := a(t)
			if err != nil {
				return types.Null(), err
			}
			vals[i] = v
		}
		return fn.Fn(vals)
	}
}

// arith applies op to two values: integer arithmetic when both are ints,
// float arithmetic otherwise, and NULL when either is NULL.
func arith(op ArithOp, lv, rv types.Value) (types.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return types.Null(), nil
	}
	if lv.K == types.KindInt && rv.K == types.KindInt {
		l, r := lv.I(), rv.I()
		switch op {
		case ArithAdd:
			return types.Int(l + r), nil
		case ArithSub:
			return types.Int(l - r), nil
		case ArithMul:
			return types.Int(l * r), nil
		case ArithDiv:
			if r == 0 {
				return types.Null(), fmt.Errorf("expr: division by zero")
			}
			return types.Int(l / r), nil
		}
	}
	l, lok := lv.AsFloat()
	r, rok := rv.AsFloat()
	if !lok || !rok {
		return types.Null(), fmt.Errorf("expr: arithmetic on non-numeric values %v %s %v", lv, op, rv)
	}
	switch op {
	case ArithAdd:
		return types.Float(l + r), nil
	case ArithSub:
		return types.Float(l - r), nil
	case ArithMul:
		return types.Float(l * r), nil
	case ArithDiv:
		if r == 0 {
			return types.Null(), fmt.Errorf("expr: division by zero")
		}
		return types.Float(l / r), nil
	}
	return types.Null(), fmt.Errorf("expr: unknown arithmetic op %d", op)
}

// constOperand folds an operand that is constant for the whole scan — a
// literal, or a parameter bound in env — so it is resolved once, not per
// row. ok is false for any other node; an unbound parameter is an error.
func constOperand(e Expr, env *Env) (types.Value, bool, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, true, nil
	case *Param:
		if env.Params == nil {
			return types.Null(), false, fmt.Errorf("expr: no parameters bound, wanted $%s", n.Name)
		}
		v, ok := env.Params[n.Name]
		if !ok {
			return types.Null(), false, fmt.Errorf("expr: parameter $%s not bound", n.Name)
		}
		return v, true, nil
	}
	return types.Null(), false, nil
}

// columnIndex resolves a direct column reference to its schema offset.
func columnIndex(e Expr, env *Env) (int, bool) {
	c, ok := e.(*Column)
	if !ok {
		return 0, false
	}
	return env.Schema.Index(c.key())
}

// cmpSatisfies applies a comparison operator to a Value.Compare result.
func cmpSatisfies(cmp int, op CmpOp) bool {
	switch op {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	case CmpGe:
		return cmp >= 0
	}
	return false
}

// compareColConst is the hoisted form of a column-vs-constant comparison:
// the constant's value and null check are resolved once at compile time.
// flipped marks the constant as the left operand (lit OP col).
func compareColConst(col int, cv types.Value, op CmpOp, flipped bool) Compiled {
	if cv.IsNull() {
		return func(types.Tuple) (types.Value, error) { return types.Bool(false), nil }
	}
	return func(t types.Tuple) (types.Value, error) {
		v := t[col]
		if v.IsNull() {
			return types.Bool(false), nil
		}
		cmp := v.Compare(cv)
		if flipped {
			cmp = -cmp
		}
		return types.Bool(cmpSatisfies(cmp, op)), nil
	}
}

// StaticSelectivity estimates the selectivity of a local predicate the way a
// traditional static optimizer would: histogram lookups for simple
// fixed-value comparisons, independence-multiplied across conjuncts, and
// Selinger defaults for anything complex (UDFs, parameters) — the exact
// behaviour whose failure modes motivate the paper.
func StaticSelectivity(e Expr, ds *stats.DatasetStats) float64 {
	switch n := e.(type) {
	case *And:
		sel := 1.0
		for _, k := range n.Kids {
			sel *= StaticSelectivity(k, ds) // independence assumption
		}
		return sel
	case *Or:
		// Inclusion-exclusion under independence.
		miss := 1.0
		for _, k := range n.Kids {
			miss *= 1 - StaticSelectivity(k, ds)
		}
		return 1 - miss
	case *Not:
		return 1 - StaticSelectivity(n.Kid, ds)
	case *Compare:
		if IsComplex(n) {
			return stats.DefaultUDFSelectivity
		}
		col, lit := splitColLit(n.L, n.R)
		if col == nil || lit == nil {
			return defaultForCmp(n.Op)
		}
		lv, ok := lit.Val.AsFloat()
		if !ok || ds == nil {
			return defaultForCmp(n.Op)
		}
		fs := ds.Fields[col.Name]
		op := cmpToRange(n.Op, n.L == lit) // flipped when literal on the left
		return stats.EstimateSelectivity(fs, op, lv, lv)
	case *Between:
		if IsComplex(n) {
			return stats.DefaultUDFSelectivity
		}
		col, _ := n.X.(*Column)
		lo, lok := n.Lo.(*Literal)
		hi, hok := n.Hi.(*Literal)
		if col == nil || !lok || !hok || ds == nil {
			return stats.DefaultIneqSelectivity
		}
		lof, ok1 := lo.Val.AsFloat()
		hif, ok2 := hi.Val.AsFloat()
		if !ok1 || !ok2 {
			return stats.DefaultIneqSelectivity
		}
		return stats.EstimateSelectivity(ds.Fields[col.Name], stats.OpBetween, lof, hif)
	case *Call, *Param:
		return stats.DefaultUDFSelectivity
	default:
		return stats.DefaultEqSelectivity
	}
}

func splitColLit(l, r Expr) (*Column, *Literal) {
	if c, ok := l.(*Column); ok {
		if lit, ok := r.(*Literal); ok {
			return c, lit
		}
	}
	if c, ok := r.(*Column); ok {
		if lit, ok := l.(*Literal); ok {
			return c, lit
		}
	}
	return nil, nil
}

func cmpToRange(op CmpOp, litOnLeft bool) stats.RangeOp {
	if litOnLeft {
		// lit < col  ≡  col > lit, etc.
		switch op {
		case CmpLt:
			op = CmpGt
		case CmpLe:
			op = CmpGe
		case CmpGt:
			op = CmpLt
		case CmpGe:
			op = CmpLe
		}
	}
	switch op {
	case CmpEq:
		return stats.OpEq
	case CmpNe:
		return stats.OpNe
	case CmpLt:
		return stats.OpLt
	case CmpLe:
		return stats.OpLe
	case CmpGt:
		return stats.OpGt
	case CmpGe:
		return stats.OpGe
	default:
		return stats.OpEq
	}
}

func defaultForCmp(op CmpOp) float64 {
	switch op {
	case CmpEq:
		return stats.DefaultEqSelectivity
	case CmpNe:
		return 1 - stats.DefaultEqSelectivity
	default:
		return stats.DefaultIneqSelectivity
	}
}
