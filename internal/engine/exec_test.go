package engine

import (
	"strings"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

func TestMaterializeFlattensAndCollectsStats(t *testing.T) {
	ctx := testCtx(t, 4)
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(100, 10))
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	ds, st, err := Materialize(ctx, rel, "tmp_1", map[string]bool{"a_grp": true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Schema.Fields[0].Name != "a_id" || ds.Schema.Fields[1].Name != "a_grp" {
		t.Errorf("flattened schema = %s", ds.Schema)
	}
	if !ds.Temp {
		t.Error("materialized dataset not temp")
	}
	if st.RecordCount != 100 {
		t.Errorf("stats rows = %d", st.RecordCount)
	}
	if d := st.Field("a_grp").DistinctCount(); d < 9 || d > 11 {
		t.Errorf("online distinct(a_grp) = %d", d)
	}
	if fs, ok := st.Fields["a_id"]; ok && fs.Count > 0 {
		t.Error("collected stats on a field not requested")
	}
	acct := ctx.Cluster.Acct().Snapshot()
	if acct.MatWriteRows != 100 || acct.MatWriteBytes == 0 {
		t.Errorf("sink metering = %+v", acct)
	}
	if acct.StatsObserved != 100 {
		t.Errorf("stats observations = %d, want 100 (one field)", acct.StatsObserved)
	}
	// Partitioning preserved: pk was id → flattened a_id.
	if len(ds.PrimaryKey) != 1 || ds.PrimaryKey[0] != "a_id" {
		t.Errorf("temp pk = %v", ds.PrimaryKey)
	}
}

func TestMaterializeNilStatsFields(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "t", nil, []string{"x"}, [][]int64{{1}, {2}})
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	_, st, err := Materialize(ctx, rel, "tmp_1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordCount != 2 {
		t.Errorf("counts still collected: %d", st.RecordCount)
	}
	if ctx.Cluster.Acct().StatsObserved.Load() != 0 {
		t.Error("stats observed with nil fields")
	}
}

func TestMaterializeThenScanRoundTrip(t *testing.T) {
	ctx := testCtx(t, 4)
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(64, 8))
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	ds, st, err := Materialize(ctx, rel, "tmp_rt", map[string]bool{"a_id": true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Catalog.Register(ds, st); err != nil {
		t.Fatal(err)
	}
	back, err := ScanByName(ctx, "tmp_rt", "i1", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.RowCount() != 64 {
		t.Errorf("round trip rows = %d", back.RowCount())
	}
	if back.Schema.Fields[0].QName() != "i1.a_id" {
		t.Errorf("round trip schema = %s", back.Schema)
	}
	// Partitioning knowledge restored from the temp pk.
	if back.PartCols == nil {
		t.Error("PartCols not restored from temp dataset")
	}
}

func TestExecutePlanLeafAndJoins(t *testing.T) {
	ctx := testCtx(t, 4)
	register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 10))
	dimRows := make([][]int64, 10)
	for i := range dimRows {
		dimRows[i] = []int64{int64(i), int64(i), 0}
	}
	register(t, ctx, "dim", []string{"id"}, []string{"id", "attr", "pad"}, dimRows)

	for _, algo := range []plan.Algo{plan.AlgoHash, plan.AlgoBroadcast} {
		root := plan.NewJoin(&plan.Join{
			Left:      plan.NewLeaf(&plan.Leaf{Dataset: "fact", Alias: "f"}),
			Right:     plan.NewLeaf(&plan.Leaf{Dataset: "dim", Alias: "d"}),
			LeftKeys:  []string{"f.fk"},
			RightKeys: []string{"d.id"},
			Algo:      algo,
			BuildLeft: false,
		})
		rel, err := Execute(ctx, root)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if rel.RowCount() != 100 {
			t.Errorf("%v: rows = %d", algo, rel.RowCount())
		}
	}
}

func TestExecutePlanIndexNL(t *testing.T) {
	ctx := testCtx(t, 4)
	factDS := register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 10))
	if _, err := storage.BuildIndex(factDS, "fk"); err != nil {
		t.Fatal(err)
	}
	register(t, ctx, "dim", []string{"id"}, []string{"id", "attr", "pad"}, [][]int64{{3, 0, 0}})

	// dim (build/broadcast, left) ⋈i fact (inner probe via index, right).
	root := plan.NewJoin(&plan.Join{
		Left:      plan.NewLeaf(&plan.Leaf{Dataset: "dim", Alias: "d"}),
		Right:     plan.NewLeaf(&plan.Leaf{Dataset: "fact", Alias: "f"}),
		LeftKeys:  []string{"d.id"},
		RightKeys: []string{"f.fk"},
		Algo:      plan.AlgoIndexNL,
		BuildLeft: true,
	})
	rel, err := Execute(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	if rel.RowCount() != 10 {
		t.Errorf("rows = %d, want 10", rel.RowCount())
	}
	if rel.Schema.Fields[0].QName() != "d.id" {
		t.Errorf("orientation: %s", rel.Schema)
	}

	// Flipped orientation: fact on the left as inner, dim broadcast from the
	// right; output must still be left⧺right = f then d.
	root2 := plan.NewJoin(&plan.Join{
		Left:      plan.NewLeaf(&plan.Leaf{Dataset: "fact", Alias: "f"}),
		Right:     plan.NewLeaf(&plan.Leaf{Dataset: "dim", Alias: "d"}),
		LeftKeys:  []string{"f.fk"},
		RightKeys: []string{"d.id"},
		Algo:      plan.AlgoIndexNL,
		BuildLeft: false,
	})
	rel2, err := Execute(ctx, root2)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.RowCount() != 10 {
		t.Errorf("flipped rows = %d", rel2.RowCount())
	}
	if rel2.Schema.Fields[0].QName() != "f.id" {
		t.Errorf("flipped orientation: %s", rel2.Schema)
	}
}

func TestExecutePlanIndexNLRequiresBaseLeaf(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "a", []string{"id"}, []string{"id", "k", "p"}, seqTable(10, 2))
	register(t, ctx, "b", []string{"id"}, []string{"id", "k", "p"}, seqTable(10, 2))
	register(t, ctx, "c", []string{"id"}, []string{"id", "k", "p"}, seqTable(10, 2))
	inner := plan.NewJoin(&plan.Join{
		Left:      plan.NewLeaf(&plan.Leaf{Dataset: "a", Alias: "a"}),
		Right:     plan.NewLeaf(&plan.Leaf{Dataset: "b", Alias: "b"}),
		LeftKeys:  []string{"a.id"},
		RightKeys: []string{"b.id"},
		Algo:      plan.AlgoHash,
	})
	root := plan.NewJoin(&plan.Join{
		Left:      plan.NewLeaf(&plan.Leaf{Dataset: "c", Alias: "c"}),
		Right:     inner,
		LeftKeys:  []string{"c.k"},
		RightKeys: []string{"a.k"},
		Algo:      plan.AlgoIndexNL,
		BuildLeft: true,
	})
	if _, err := Execute(ctx, root); err == nil {
		t.Error("INLJ over a join subtree did not error")
	}
}

func TestFinishProjectionGroupOrderLimit(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(20, 4))
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	q, err := sqlpp.Parse("SELECT a.grp FROM t AS a GROUP BY a.grp ORDER BY a.grp DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finish(ctx, q, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Groups are 0..3; DESC LIMIT 3 → 3, 2, 1.
	for i, want := range []int64{3, 2, 1} {
		if res.Rows[i][0].I() != want {
			t.Errorf("row %d = %v, want %d", i, res.Rows[i], want)
		}
	}
	if res.Columns[0] != "a.grp" {
		t.Errorf("column name = %q", res.Columns[0])
	}
}

// TestFinishClauses pins the finishing pass on one relation: each case's
// columns and rows (kind and value, in order) as the two finishing bodies
// it replaced returned them. Rows arrive in partition order, so an
// unordered result is that order, and ORDER BY ties keep it.
func TestFinishClauses(t *testing.T) {
	ctx := testCtx(t, 2)
	// 10 rows: grp = id%3, pay = id*10.
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(10, 3))
	rel, err := ScanByName(ctx, "t", "a", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sql, cols, rows string }{
		{"SELECT * FROM t AS a",
			"a.id, a.grp, a.pay",
			"int 1, int 1, int 10; int 3, int 0, int 30; int 5, int 2, int 50; int 7, int 1, int 70; int 9, int 0, int 90; int 0, int 0, int 0; int 2, int 2, int 20; int 4, int 1, int 40; int 6, int 0, int 60; int 8, int 2, int 80"},
		{"SELECT a.id, a.pay / 4 + 1 AS x, a.pay * 0.5 FROM t AS a",
			"a.id, x, (a.pay * 0.5)",
			"int 1, int 3, float 5; int 3, int 8, float 15; int 5, int 13, float 25; int 7, int 18, float 35; int 9, int 23, float 45; int 0, int 1, float 0; int 2, int 6, float 10; int 4, int 11, float 20; int 6, int 16, float 30; int 8, int 21, float 40"},
		{"SELECT a.grp FROM t AS a GROUP BY a.grp",
			"a.grp",
			"int 1; int 0; int 2"},
		{"SELECT a.grp, a.id FROM t AS a GROUP BY a.grp",
			"a.grp, a.id",
			"int 1, int 1; int 0, int 3; int 2, int 5"},
		{"SELECT count(a.id) AS n, sum(a.pay), avg(a.id), min(a.pay), max(a.pay) FROM t AS a",
			"n, sum(a.pay), avg(a.id), min(a.pay), max(a.pay)",
			"int 10, float 450, float 4.5, int 0, int 90"},
		{"SELECT a.grp, count(a.id) AS n, sum(a.pay), a.grp * 10 FROM t AS a GROUP BY a.grp",
			"a.grp, n, sum(a.pay), (a.grp * 10)",
			"int 1, int 3, float 120, int 10; int 0, int 4, float 180, int 0; int 2, int 3, float 150, int 20"},
		{"SELECT a.id, a.grp FROM t AS a ORDER BY a.grp DESC",
			"a.id, a.grp",
			"int 5, int 2; int 2, int 2; int 8, int 2; int 1, int 1; int 7, int 1; int 4, int 1; int 3, int 0; int 9, int 0; int 0, int 0; int 6, int 0"},
		{"SELECT a.grp, max(a.id) FROM t AS a GROUP BY a.grp ORDER BY a.grp DESC LIMIT 2",
			"a.grp, max(a.id)",
			"int 2, int 8; int 1, int 7"},
		{"SELECT a.grp, min(a.pay) FROM t AS a GROUP BY a.grp ORDER BY a.id DESC",
			"a.grp, min(a.pay)",
			"int 2, int 20; int 0, int 0; int 1, int 10"},
		{"SELECT a.id FROM t AS a ORDER BY a.id LIMIT 3",
			"a.id",
			"int 0; int 1; int 2"},
		{"SELECT a.id FROM t AS a ORDER BY a.id DESC LIMIT 100",
			"a.id",
			"int 9; int 8; int 7; int 6; int 5; int 4; int 3; int 2; int 1; int 0"},
		{"SELECT a.grp FROM t AS a GROUP BY a.grp ORDER BY a.grp DESC LIMIT 5",
			"a.grp",
			"int 2; int 1; int 0"},
		{"SELECT * FROM t AS a ORDER BY a.pay DESC LIMIT 4",
			"a.id, a.grp, a.pay",
			"int 9, int 0, int 90; int 8, int 2, int 80; int 7, int 1, int 70; int 6, int 0, int 60"},
		{"SELECT a.id FROM t AS a LIMIT 0",
			"a.id",
			""},
	} {
		q, err := sqlpp.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Finish(ctx, q, rel)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := strings.Join(res.Columns, ", "); got != tc.cols {
			t.Errorf("%s: columns %s, want %s", tc.sql, got, tc.cols)
		}
		var rows []string
		for _, r := range res.Rows {
			vals := make([]string, len(r))
			for i, v := range r {
				vals[i] = v.K.String() + " " + v.String()
			}
			rows = append(rows, strings.Join(vals, ", "))
		}
		if got := strings.Join(rows, "; "); got != tc.rows {
			t.Errorf("%s:\n got %s\nwant %s", tc.sql, got, tc.rows)
		}
	}
}

func TestFinishSelectStar(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "t", nil, []string{"x", "y"}, [][]int64{{1, 2}, {3, 4}})
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	q, _ := sqlpp.Parse("SELECT * FROM t AS a")
	res, err := Finish(ctx, q, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 2 {
		t.Errorf("star result = %d×%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[0] != "a.x" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestFinishSelectAlias(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "t", nil, []string{"x", "y"}, [][]int64{{1, 2}})
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	q, _ := sqlpp.Parse("SELECT a.x AS out FROM t AS a")
	res, err := Finish(ctx, q, rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "out" {
		t.Errorf("aliased column = %q", res.Columns[0])
	}
}

func TestFinishEvalError(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "t", nil, []string{"x", "y"}, [][]int64{{1, 2}})
	rel, _ := ScanByName(ctx, "t", "a", nil, nil)
	q, _ := sqlpp.Parse("SELECT a.zz FROM t AS a")
	if _, err := Finish(ctx, q, rel); err == nil {
		t.Error("bad select column did not error")
	}
}

func TestFilterFor(t *testing.T) {
	if FilterFor(nil) != nil {
		t.Error("FilterFor(nil) != nil")
	}
	one := &expr.Literal{Val: types.Bool(true)}
	if FilterFor([]expr.Expr{one}) != one {
		t.Error("single local not returned directly")
	}
	and, ok := FilterFor([]expr.Expr{one, one}).(*expr.And)
	if !ok || len(and.Kids) != 2 {
		t.Error("multi local not conjuncted")
	}
}

func TestPlanPrinting(t *testing.T) {
	leafA := plan.NewLeaf(&plan.Leaf{Dataset: "A", Alias: "a", Filtered: true})
	leafB := plan.NewLeaf(&plan.Leaf{Dataset: "B", Alias: "b"})
	leafC := plan.NewLeaf(&plan.Leaf{Dataset: "C", Alias: "c"})
	j1 := plan.NewJoin(&plan.Join{Left: leafA, Right: leafB, LeftKeys: []string{"a.k"}, RightKeys: []string{"b.k"}, Algo: plan.AlgoBroadcast})
	root := plan.NewJoin(&plan.Join{Left: j1, Right: leafC, LeftKeys: []string{"b.j"}, RightKeys: []string{"c.j"}, Algo: plan.AlgoHash})
	if got := root.Compact(); got != "((a' ⋈b b) ⋈ c)" {
		t.Errorf("Compact = %q", got)
	}
	tree := root.Tree()
	for _, want := range []string{"hash join", "broadcast join", "scan A as a", "scan C as c"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree missing %q:\n%s", want, tree)
		}
	}
	if root.JoinCount() != 2 || root.Depth() != 3 {
		t.Errorf("JoinCount=%d Depth=%d", root.JoinCount(), root.Depth())
	}
	if root.IsBushy() {
		t.Error("left-deep plan reported bushy")
	}
	aliases := root.Aliases()
	if len(aliases) != 3 || aliases[0] != "a" {
		t.Errorf("Aliases = %v", aliases)
	}
	// A genuinely bushy plan.
	leafD := plan.NewLeaf(&plan.Leaf{Dataset: "D", Alias: "d"})
	j2 := plan.NewJoin(&plan.Join{Left: leafC, Right: leafD, LeftKeys: []string{"c.j"}, RightKeys: []string{"d.j"}, Algo: plan.AlgoHash})
	bushy := plan.NewJoin(&plan.Join{Left: j1, Right: j2, LeftKeys: []string{"b.j"}, RightKeys: []string{"c.j"}, Algo: plan.AlgoHash})
	if !bushy.IsBushy() {
		t.Error("bushy plan not detected")
	}
}
