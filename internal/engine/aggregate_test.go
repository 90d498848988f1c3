package engine

import (
	"math"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/sqlpp"
	"dynopt/internal/types"
)

func aggCtx(t *testing.T) *Context {
	t.Helper()
	ctx := testCtx(t, 4)
	// 100 rows: grp = id%4, pay = id.
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(100, 4))
	return ctx
}

func runAgg(t *testing.T, ctx *Context, sql string) *Result {
	t.Helper()
	q, err := sqlpp.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ScanByName(ctx, "t", "a", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finish(ctx, q, rel)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAggregateGlobalGroup(t *testing.T) {
	ctx := aggCtx(t)
	res := runAgg(t, ctx, "SELECT count(a.id) AS n, sum(a.pay) AS s, min(a.pay), max(a.pay), avg(a.id) FROM t AS a")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].I() != 100 {
		t.Errorf("count = %v", row[0])
	}
	// pay = id*10, sum = 10 * (0+..+99) = 49500.
	if f, _ := row[1].AsFloat(); f != 49500 {
		t.Errorf("sum = %v", row[1])
	}
	if mn, _ := row[2].AsFloat(); mn != 0 {
		t.Errorf("min = %v", row[2])
	}
	if mx, _ := row[3].AsFloat(); mx != 990 {
		t.Errorf("max = %v", row[3])
	}
	if av, _ := row[4].AsFloat(); math.Abs(av-49.5) > 1e-9 {
		t.Errorf("avg = %v", row[4])
	}
	if res.Columns[0] != "n" || res.Columns[1] != "s" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestAggregatePerGroup(t *testing.T) {
	ctx := aggCtx(t)
	res := runAgg(t, ctx, `SELECT a.grp, count(a.id) AS n, sum(a.pay) AS s
		FROM t AS a GROUP BY a.grp ORDER BY a.grp`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for g, row := range res.Rows {
		if row[0].I() != int64(g) {
			t.Errorf("group key order: %v", row)
		}
		if row[1].I() != 25 {
			t.Errorf("group %d count = %v", g, row[1])
		}
		// ids g, g+4, ..., g+96 → sum(pay) = 10*(25g + 4*(0+..+24)).
		want := float64(10 * (25*g + 4*300))
		if f, _ := row[2].AsFloat(); f != want {
			t.Errorf("group %d sum = %v, want %v", g, row[2], want)
		}
	}
}

func TestAggregateOrderDescLimit(t *testing.T) {
	ctx := aggCtx(t)
	res := runAgg(t, ctx, `SELECT a.grp, count(a.id) FROM t AS a
		GROUP BY a.grp ORDER BY a.grp DESC LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I() != 3 || res.Rows[1][0].I() != 2 {
		t.Errorf("desc order: %v %v", res.Rows[0], res.Rows[1])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, nil)
	res := runAgg(t, ctx, "SELECT count(a.id), sum(a.pay), min(a.pay) FROM t AS a")
	// No groups at all without GROUP BY over empty input: zero rows is the
	// engine's contract (grouping produces no groups).
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	ctx := aggCtx(t)
	q, err := sqlpp.Parse("SELECT a.id FROM t AS a WHERE sum(a.pay) = 3")
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	if _, err := Finish(ctx, q, rel); err == nil {
		t.Error("aggregate in WHERE did not error")
	}
	q2, err := sqlpp.Parse("SELECT a.id FROM t AS a GROUP BY count(a.id)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finish(ctx, q2, rel); err == nil {
		t.Error("aggregate in GROUP BY did not error")
	}
}

func TestAggregateMixedWithUDFCallNotConfused(t *testing.T) {
	// myyear() is a plain (non-aggregate) call: the non-aggregate path must
	// handle it even in an aggregate query's non-agg items.
	ctx := testCtx(t, 2)
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(20, 2))
	res := runAgg(t, ctx, "SELECT a.grp, count(a.id) FROM t AS a GROUP BY a.grp ORDER BY a.grp")
	if len(res.Rows) != 2 || res.Rows[0][1].I() != 10 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestGroupKeyClasses pins which values share a group: the classes
// Value.Compare draws, and no others.
func TestGroupKeyClasses(t *testing.T) {
	cols := []expr.Expr{&expr.Column{Name: "x"}, &expr.Column{Name: "y"}}
	env := &expr.Env{Schema: types.NewSchema(types.Field{Name: "x"}, types.Field{Name: "y"})}
	key := func(x, y types.Value) string {
		k, err := groupKey(nil, cols, types.Tuple{x, y}, env)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	if key(types.Int(1), types.Str("s")) != key(types.Float(1.0), types.Str("s")) {
		t.Error("int 1 and float 1.0 land in different groups; Compare has them equal")
	}
	for _, pair := range [][2][2]types.Value{
		{{types.Null(), types.Int(0)}, {types.Str("NULL"), types.Int(0)}},
		{{types.Str("a'|'b"), types.Str("c")}, {types.Str("a"), types.Str("b'|'c")}},
		{{types.Str("1"), types.Int(0)}, {types.Int(1), types.Int(0)}},
		{{types.Str(""), types.Str("")}, {types.Str("''"), types.Null()}},
	} {
		if key(pair[0][0], pair[0][1]) == key(pair[1][0], pair[1][1]) {
			t.Errorf("%v and %v share a group key", pair[0], pair[1])
		}
	}
}
