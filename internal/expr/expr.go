// Package expr defines the scalar expression language used by local
// predicates: column references, literals, comparisons (incl. BETWEEN),
// boolean connectives, arithmetic, query parameters ($name), and UDF calls.
//
// The paper's predicate taxonomy (§5.1) maps onto this AST: a predicate is
// "complex" when it contains a UDF call or a parameter — exactly the cases
// where a static optimizer is reduced to default selectivity guesses and the
// dynamic approach executes the predicate instead.
//
// The AST has no evaluator of its own: Compile specializes an expression
// against one schema into a closure, once per scan or per finishing pass,
// and that closure is the one scalar evaluator. CompileVec lowers predicates
// into selection kernels pinned to it.
package expr

import (
	"strings"

	"dynopt/internal/types"
)

// Env supplies everything an expression needs at evaluation time.
type Env struct {
	Schema *types.Schema
	Params map[string]types.Value
	UDFs   *Registry
}

// Expr is a scalar expression over one tuple; Compile evaluates it.
type Expr interface {
	// SQL renders the expression as SQL text (used when the dynamic
	// optimizer re-emits the reconstructed query).
	SQL() string
	// Walk visits this node and every child.
	Walk(fn func(Expr))
}

// Column references alias.name (Qualifier may be empty for bare names).
type Column struct {
	Qualifier string
	Name      string
}

func (c *Column) key() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// SQL implements Expr.
func (c *Column) SQL() string { return c.key() }

// Walk implements Expr.
func (c *Column) Walk(fn func(Expr)) { fn(c) }

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

// SQL implements Expr.
func (l *Literal) SQL() string { return l.Val.String() }

// Walk implements Expr.
func (l *Literal) Walk(fn func(Expr)) { fn(l) }

// Param is a query parameter ($name), bound at execution time. A predicate
// containing one is "complex": its selectivity cannot be estimated statically.
type Param struct {
	Name string
}

// SQL implements Expr.
func (p *Param) SQL() string { return "$" + p.Name }

// Walk implements Expr.
func (p *Param) Walk(fn func(Expr)) { fn(p) }

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Compare applies a comparison operator to two sub-expressions. Comparisons
// involving NULL yield false.
type Compare struct {
	Op   CmpOp
	L, R Expr
}

// SQL implements Expr.
func (c *Compare) SQL() string {
	return c.L.SQL() + " " + c.Op.String() + " " + c.R.SQL()
}

// Walk implements Expr.
func (c *Compare) Walk(fn func(Expr)) {
	fn(c)
	c.L.Walk(fn)
	c.R.Walk(fn)
}

// Between is "x BETWEEN lo AND hi" (inclusive both ends).
type Between struct {
	X, Lo, Hi Expr
}

// SQL implements Expr.
func (b *Between) SQL() string {
	return b.X.SQL() + " BETWEEN " + b.Lo.SQL() + " AND " + b.Hi.SQL()
}

// Walk implements Expr.
func (b *Between) Walk(fn func(Expr)) {
	fn(b)
	b.X.Walk(fn)
	b.Lo.Walk(fn)
	b.Hi.Walk(fn)
}

// And is the n-ary conjunction of its children.
type And struct {
	Kids []Expr
}

// SQL implements Expr.
func (a *And) SQL() string {
	parts := make([]string, len(a.Kids))
	for i, k := range a.Kids {
		parts[i] = k.SQL()
	}
	return strings.Join(parts, " AND ")
}

// Walk implements Expr.
func (a *And) Walk(fn func(Expr)) {
	fn(a)
	for _, k := range a.Kids {
		k.Walk(fn)
	}
}

// Or is the n-ary disjunction of its children.
type Or struct {
	Kids []Expr
}

// SQL implements Expr. The disjunction is wrapped in outer parentheses so it
// can be embedded in a conjunct list without changing precedence.
func (o *Or) SQL() string {
	parts := make([]string, len(o.Kids))
	for i, k := range o.Kids {
		parts[i] = "(" + k.SQL() + ")"
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Walk implements Expr.
func (o *Or) Walk(fn func(Expr)) {
	fn(o)
	for _, k := range o.Kids {
		k.Walk(fn)
	}
}

// Not negates its child.
type Not struct {
	Kid Expr
}

// SQL implements Expr.
func (n *Not) SQL() string { return "NOT (" + n.Kid.SQL() + ")" }

// Walk implements Expr.
func (n *Not) Walk(fn func(Expr)) {
	fn(n)
	n.Kid.Walk(fn)
}

// Call invokes a registered UDF by name.
type Call struct {
	Name string
	Args []Expr
}

// SQL implements Expr.
func (c *Call) SQL() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.SQL()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Walk implements Expr.
func (c *Call) Walk(fn func(Expr)) {
	fn(c)
	for _, a := range c.Args {
		a.Walk(fn)
	}
}

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
	ArithDiv
)

func (o ArithOp) String() string {
	switch o {
	case ArithAdd:
		return "+"
	case ArithSub:
		return "-"
	case ArithMul:
		return "*"
	case ArithDiv:
		return "/"
	default:
		return "?"
	}
}

// Arith applies an arithmetic operator to two numeric sub-expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// SQL implements Expr.
func (a *Arith) SQL() string {
	return "(" + a.L.SQL() + " " + a.Op.String() + " " + a.R.SQL() + ")"
}

// Walk implements Expr.
func (a *Arith) Walk(fn func(Expr)) {
	fn(a)
	a.L.Walk(fn)
	a.R.Walk(fn)
}
