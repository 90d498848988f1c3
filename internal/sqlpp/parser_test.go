package sqlpp

import (
	"strings"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/types"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseMinimal(t *testing.T) {
	q := mustParse(t, "SELECT a.x FROM a")
	if len(q.Select) != 1 || len(q.From) != 1 || q.Limit != -1 {
		t.Fatalf("bad query: %+v", q)
	}
	c, ok := q.Select[0].Expr.(*expr.Column)
	if !ok || c.Qualifier != "a" || c.Name != "x" {
		t.Errorf("select item = %#v", q.Select[0].Expr)
	}
	if q.From[0].Dataset != "a" || q.From[0].Alias != "a" {
		t.Errorf("from = %+v", q.From[0])
	}
}

func TestParseStar(t *testing.T) {
	q := mustParse(t, "SELECT * FROM t WHERE t.x = 1;")
	if !q.SelectStar {
		t.Error("SelectStar not set")
	}
	if len(q.Where) != 1 {
		t.Errorf("Where = %d conjuncts", len(q.Where))
	}
}

func TestParseAliases(t *testing.T) {
	q := mustParse(t, "SELECT d1.x FROM date_dim d1, date_dim AS d2, store")
	if q.From[0].Alias != "d1" || q.From[0].Dataset != "date_dim" {
		t.Errorf("implicit alias: %+v", q.From[0])
	}
	if q.From[1].Alias != "d2" {
		t.Errorf("AS alias: %+v", q.From[1])
	}
	if q.From[2].Alias != "store" {
		t.Errorf("default alias: %+v", q.From[2])
	}
}

func TestParseWhereConjunctsFlattened(t *testing.T) {
	q := mustParse(t, `SELECT a.x FROM a, b
		WHERE a.x = b.y AND a.z = 3 AND b.w BETWEEN 1 AND 5 AND (a.p = 1 OR a.p = 2)`)
	if len(q.Where) != 4 {
		t.Fatalf("conjuncts = %d, want 4", len(q.Where))
	}
	if _, ok := q.Where[2].(*expr.Between); !ok {
		t.Errorf("conjunct 2 = %T", q.Where[2])
	}
	if _, ok := q.Where[3].(*expr.Or); !ok {
		t.Errorf("conjunct 3 = %T", q.Where[3])
	}
}

func TestParseLiteralsAndParams(t *testing.T) {
	q := mustParse(t, `SELECT a.x FROM a WHERE a.s = 'str''esc' AND a.f = 1.5
		AND a.b = TRUE AND a.n = NULL AND a.p = $year AND a.d = DATE '1995-01-01' AND a.neg = -7`)
	w := q.Where
	if lit := w[0].(*expr.Compare).R.(*expr.Literal); lit.Val.S != "str'esc" {
		t.Errorf("string literal = %v", lit.Val)
	}
	if lit := w[1].(*expr.Compare).R.(*expr.Literal); lit.Val.F() != 1.5 {
		t.Errorf("float literal = %v", lit.Val)
	}
	if lit := w[2].(*expr.Compare).R.(*expr.Literal); !lit.Val.IsTrue() {
		t.Errorf("bool literal = %v", lit.Val)
	}
	if lit := w[3].(*expr.Compare).R.(*expr.Literal); !lit.Val.IsNull() {
		t.Errorf("null literal = %v", lit.Val)
	}
	if p := w[4].(*expr.Compare).R.(*expr.Param); p.Name != "year" {
		t.Errorf("param = %v", p)
	}
	if lit := w[5].(*expr.Compare).R.(*expr.Literal); lit.Val.S != "1995-01-01" {
		t.Errorf("date literal = %v", lit.Val)
	}
	if lit := w[6].(*expr.Compare).R.(*expr.Literal); lit.Val.I() != -7 {
		t.Errorf("negative literal = %v", lit.Val)
	}
}

func TestParseUDFCalls(t *testing.T) {
	q := mustParse(t, "SELECT a.x FROM a WHERE myyear(a.d) = 1998 AND f() = 1 AND g(a.x, 2) = 3")
	c := q.Where[0].(*expr.Compare).L.(*expr.Call)
	if c.Name != "myyear" || len(c.Args) != 1 {
		t.Errorf("call = %+v", c)
	}
	if c0 := q.Where[1].(*expr.Compare).L.(*expr.Call); len(c0.Args) != 0 {
		t.Errorf("zero-arg call = %+v", c0)
	}
	if c2 := q.Where[2].(*expr.Compare).L.(*expr.Call); len(c2.Args) != 2 {
		t.Errorf("two-arg call = %+v", c2)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	q := mustParse(t, `SELECT a.x FROM a WHERE a.x = 1
		GROUP BY a.x, a.y ORDER BY a.x DESC, a.y ASC, a.z LIMIT 100`)
	if len(q.GroupBy) != 2 {
		t.Errorf("GroupBy = %d", len(q.GroupBy))
	}
	if len(q.OrderBy) != 3 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc || q.OrderBy[2].Desc {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
	if q.Limit != 100 {
		t.Errorf("Limit = %d", q.Limit)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q := mustParse(t, "SELECT a.x FROM a WHERE a.x = 1 + 2 * 3")
	cmp := q.Where[0].(*expr.Compare)
	add, ok := cmp.R.(*expr.Arith)
	if !ok || add.Op != expr.ArithAdd {
		t.Fatalf("rhs = %#v", cmp.R)
	}
	mul, ok := add.R.(*expr.Arith)
	if !ok || mul.Op != expr.ArithMul {
		t.Fatalf("mul side = %#v", add.R)
	}
	env := &expr.Env{Schema: types.NewSchema()}
	rhs, err := expr.Compile(cmp.R, env)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rhs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.I() != 7 {
		t.Errorf("1+2*3 = %v", v)
	}
}

func TestParseComments(t *testing.T) {
	q := mustParse(t, `SELECT a.x -- trailing comment
		FROM a /* block
		comment */ WHERE a.x = 1`)
	if len(q.Where) != 1 {
		t.Errorf("Where = %d", len(q.Where))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT a.x",
		"SELECT a.x FROM",
		"SELECT a.x FROM a WHERE",
		"SELECT a.x FROM a LIMIT x",
		"SELECT a.x FROM a extra_token_dangling pie",
		"SELECT a.x FROM a WHERE a.x = 'unterminated",
		"SELECT a.x FROM a WHERE a.x = $",
		"SELECT a.x FROM a WHERE a.x ! 3",
		"SELECT a.x FROM a WHERE (a.x = 1",
		"SELECT a.x FROM a WHERE a.x BETWEEN 1",
		"SELECT a.x FROM a WHERE a. = 1",
		"SELECT a.x FROM a WHERE f(a.x = 1",
		"SELECT a.x FROM a WHERE a.x = DATE 42",
		"SELECT a.x AS FROM a",
		"SELECT a.x FROM a AS",
		"SELECT a.x FROM a GROUP x",
		"SELECT a.x FROM a ORDER x",
		"SELECT a.x FROM a WHERE a.x = 1 %",
		"SELECT a.x FROM a /* unterminated",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT a.x\nFROM a WHERE ???")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestSQLRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT a.x FROM a WHERE a.x = 1",
		"SELECT a.x AS out, b.y FROM a, b AS bee WHERE a.k = bee.k AND a.z BETWEEN 1 AND 5",
		"SELECT * FROM t1, t2 WHERE t1.a = t2.b GROUP BY t1.a ORDER BY t1.a DESC LIMIT 10",
		"SELECT a.x FROM a WHERE myyear(a.d) = $y AND NOT (a.z = 2) AND (a.p = 1 OR a.q = 2)",
	}
	for _, src := range srcs {
		q1 := mustParse(t, src)
		emitted := q1.SQL()
		q2, err := Parse(emitted)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v\nemitted: %s", src, err, emitted)
			continue
		}
		if q2.SQL() != emitted {
			t.Errorf("SQL not a fixed point:\nfirst:  %s\nsecond: %s", emitted, q2.SQL())
		}
	}
}

func TestQueryClone(t *testing.T) {
	q := mustParse(t, "SELECT a.x FROM a, b WHERE a.x = b.y AND a.z = 1")
	c := q.Clone()
	c.From = c.From[:1]
	c.Where = c.Where[:1]
	if len(q.From) != 2 || len(q.Where) != 2 {
		t.Error("Clone aliased slices")
	}
}

func TestAliasOf(t *testing.T) {
	q := mustParse(t, "SELECT a.x FROM t AS a")
	if ref, ok := q.AliasOf("a"); !ok || ref.Dataset != "t" {
		t.Errorf("AliasOf(a) = %+v, %v", ref, ok)
	}
	if _, ok := q.AliasOf("nope"); ok {
		t.Error("AliasOf(nope) = true")
	}
}
