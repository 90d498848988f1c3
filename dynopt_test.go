package dynopt

import (
	"fmt"
	"strings"
	"testing"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{Nodes: 4})
	users := make([]Tuple, 400)
	for i := range users {
		users[i] = Tuple{Int(int64(i)), Int(int64(i % 8)), Str("user-pad")}
	}
	if err := db.CreateDataset("users", NewSchema(
		F("u_id", KindInt), F("u_grp", KindInt), F("u_pad", KindString),
	), []string{"u_id"}, users); err != nil {
		t.Fatal(err)
	}
	orders := make([]Tuple, 3000)
	for i := range orders {
		orders[i] = Tuple{Int(int64(i)), Int(int64(i % 400)), Int(int64(i % 50)), Float(float64(i) / 7)}
	}
	if err := db.CreateDataset("orders", NewSchema(
		F("o_id", KindInt), F("o_user", KindInt), F("o_item", KindInt), F("o_amt", KindFloat),
	), []string{"o_id"}, orders); err != nil {
		t.Fatal(err)
	}
	items := make([]Tuple, 50)
	for i := range items {
		items[i] = Tuple{Int(int64(i)), Str("item-" + strings.Repeat("x", i%5))}
	}
	if err := db.CreateDataset("items", NewSchema(
		F("i_id", KindInt), F("i_name", KindString),
	), []string{"i_id"}, items); err != nil {
		t.Fatal(err)
	}
	return db
}

const apiQuery = `SELECT o.o_id FROM orders o, users u, items i
WHERE o.o_user = u.u_id AND o.o_item = i.i_id AND u.u_grp = 3`

func TestOpenDefaults(t *testing.T) {
	db := Open(Config{})
	if db.Nodes() != 4 {
		t.Errorf("default nodes = %d", db.Nodes())
	}
	db2 := Open(Config{Nodes: 10})
	if db2.Nodes() != 10 {
		t.Errorf("nodes = %d", db2.Nodes())
	}
}

func TestQueryAllStrategies(t *testing.T) {
	wantRows := 3000 / 8 // u_grp = 3 keeps 50 of 400 users → 1/8 of orders
	for _, s := range []Strategy{StrategyDynamic, StrategyCostBased, StrategyBestOrder,
		StrategyWorstOrder, StrategyPilotRun, StrategyIngres} {
		t.Run(string(s), func(t *testing.T) {
			db := testDB(t)
			res, err := db.Query(apiQuery, &QueryOptions{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != wantRows {
				t.Errorf("rows = %d, want %d", len(res.Rows), wantRows)
			}
			if res.Metrics.Strategy != string(s) {
				t.Errorf("metrics strategy = %q", res.Metrics.Strategy)
			}
			if res.Metrics.Plan == "" || res.Metrics.SimSeconds <= 0 {
				t.Errorf("metrics incomplete: %+v", res.Metrics)
			}
			if res.Columns[0] != "o.o_id" {
				t.Errorf("columns = %v", res.Columns)
			}
		})
	}
}

func TestQueryDefaultStrategyIsDynamic(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(apiQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Strategy != "dynamic" {
		t.Errorf("default strategy = %q", res.Metrics.Strategy)
	}
}

func TestQueryUnknownStrategy(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(apiQuery, &QueryOptions{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy did not error")
	}
}

// TestStatementErrorsAreTheUsers: a statement that does not parse, or names a
// dataset that does not exist, fails with sqlpp's own error under every
// strategy and under Explain — not blamed on the optimizer's "reconstructed
// query", which the user's first parse is not.
func TestStatementErrorsAreTheUsers(t *testing.T) {
	db := testDB(t)
	for _, tc := range []struct{ name, sql, want string }{
		{"malformed", "SELEC oops FROM", "sqlpp: line 1 col 1: expected SELECT, found SELEC"},
		{"unknown-dataset", "SELECT x.a FROM nosuch x", `sqlpp: unknown dataset "nosuch"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range []Strategy{StrategyDynamic, StrategyCostBased, StrategyBestOrder,
				StrategyWorstOrder, StrategyPilotRun, StrategyIngres} {
				_, err := db.Query(tc.sql, &QueryOptions{Strategy: s})
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: error %q, want %q", s, err, tc.want)
				}
			}
			_, err := db.Explain(tc.sql, nil)
			if err == nil || err.Error() != tc.want {
				t.Errorf("Explain: error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestGlobalAggregateOverEmptyInput: an aggregate without GROUP BY returns
// one row even when no row survives the WHERE clause — count 0, every other
// aggregate NULL — while a GROUP BY over no rows returns none.
func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	db := testDB(t)
	for _, s := range []Strategy{StrategyDynamic, StrategyCostBased} {
		for _, tc := range []struct{ sql, want string }{
			{"SELECT count(o.o_amt) AS c FROM orders o WHERE o.o_id > 100000", "[[0]]"},
			{`SELECT count(o.o_amt), sum(o.o_amt), avg(o.o_amt), min(o.o_amt), max(o.o_amt)
				FROM orders o WHERE o.o_id > 100000`, "[[0, NULL, NULL, NULL, NULL]]"},
			{`SELECT count(o.o_id) FROM orders o, users u
				WHERE o.o_user = u.u_id AND u.u_grp = 99`, "[[0]]"},
			{"SELECT o.o_item, count(o.o_id) FROM orders o WHERE o.o_id > 100000 GROUP BY o.o_item", "[]"},
		} {
			res, err := db.Query(tc.sql, &QueryOptions{Strategy: s})
			if err != nil {
				t.Fatalf("%s: %s: %v", s, tc.sql, err)
			}
			if got := fmt.Sprint(res.Rows); got != tc.want {
				t.Errorf("%s: %s = %s, want %s", s, tc.sql, got, tc.want)
			}
		}
	}
}

// TestMisplacedAggregateRejectedBeforeAnyScan: a statement the clause
// validator rejects fails under every strategy with the validator's error
// before any scan opens — no pilot sample, shadow run, push-down or stage.
func TestMisplacedAggregateRejectedBeforeAnyScan(t *testing.T) {
	db := testDB(t)
	reg := NewFaultRegistry(1)
	reg.Arm(FaultRule{Point: "scan.open", Benign: true}) // counts every open, fails none
	db.faults = reg
	const sql = `SELECT o.o_id FROM orders o, users u, items i
WHERE o.o_user = u.u_id AND o.o_item = i.i_id AND u.u_grp = 3
ORDER BY count(o.o_id)`
	for _, s := range allStrategies {
		_, err := db.Query(sql, &QueryOptions{Strategy: s})
		if err == nil || !strings.Contains(err.Error(), "engine: aggregate in ORDER BY is not supported") {
			t.Errorf("%s: error %v, want the ORDER BY aggregate rejection", s, err)
		}
		if n := reg.Fired("scan.open"); n != 0 {
			t.Errorf("%s: %d scans opened before the statement was rejected", s, n)
		}
		reg.Reset()
		reg.Arm(FaultRule{Point: "scan.open", Benign: true})
	}
	// The rule counts: the same query without the misplaced aggregate opens scans.
	if _, err := db.Query(apiQuery, nil); err != nil {
		t.Fatal(err)
	}
	if reg.Fired("scan.open") == 0 {
		t.Error("the benign scan.open rule counted no scan of a valid query")
	}
}

func TestRegisterUDFAndParams(t *testing.T) {
	db := testDB(t)
	err := db.RegisterUDF("grp_of", func(args []Value) (Value, error) {
		return Int(args[0].I() % 8), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.SetParam("target", Int(3))
	res, err := db.Query(`SELECT u.u_id FROM users u WHERE grp_of(u.u_id) = $target`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Errorf("rows = %d, want 50", len(res.Rows))
	}
	// Per-query params override.
	res2, err := db.Query(`SELECT u.u_id FROM users u WHERE grp_of(u.u_id) = $target`,
		&QueryOptions{Params: map[string]Value{"target": Int(99)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 {
		t.Errorf("override rows = %d, want 0", len(res2.Rows))
	}
}

func TestCreateIndexAndINLJ(t *testing.T) {
	db := Open(Config{Nodes: 4, EnableINLJ: true})
	// Rebuild the same datasets on the INLJ-enabled DB.
	big := make([]Tuple, 4000)
	for i := range big {
		big[i] = Tuple{Int(int64(i)), Int(int64(i % 100))}
	}
	if err := db.CreateDataset("big", NewSchema(F("b_id", KindInt), F("b_fk", KindInt)), []string{"b_id"}, big); err != nil {
		t.Fatal(err)
	}
	small := make([]Tuple, 100)
	for i := range small {
		small[i] = Tuple{Int(int64(i)), Int(int64(i % 4))}
	}
	if err := db.CreateDataset("small", NewSchema(F("s_id", KindInt), F("s_v", KindInt)), []string{"s_id"}, small); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("big", "b_fk"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("nope", "x"); err == nil {
		t.Error("index on unknown dataset did not error")
	}
	res, err := db.Query(`SELECT b.b_id FROM big b, small s WHERE b.b_fk = s.s_id AND s.s_v = 2`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1000 {
		t.Errorf("rows = %d, want 1000", len(res.Rows))
	}
	if !strings.Contains(res.Metrics.Plan, "⋈i") {
		t.Errorf("INLJ not used: %s", res.Metrics.Plan)
	}
	if res.Metrics.Counters.IndexLookups == 0 {
		t.Error("no index lookups metered")
	}
}

func TestExplainDoesNotPolluteMetrics(t *testing.T) {
	db := testDB(t)
	out, err := db.Explain(apiQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "join") {
		t.Errorf("explain output:\n%s", out)
	}
	// Explain must not leave temps behind.
	for _, n := range db.Datasets() {
		if strings.HasPrefix(n, "tmp_") {
			t.Errorf("explain leaked %s", n)
		}
	}
}

func TestDatasets(t *testing.T) {
	db := testDB(t)
	names := db.Datasets()
	if len(names) != 3 {
		t.Errorf("datasets = %v", names)
	}
}

func TestWorkloadWrappers(t *testing.T) {
	db := Open(Config{Nodes: 2})
	n, err := LoadTPCH(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6000 {
		t.Errorf("lineitem = %d", n)
	}
	if err := CreateTPCHIndexes(db); err != nil {
		t.Fatal(err)
	}
	m, err := LoadTPCDS(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m != 6000 {
		t.Errorf("store_sales = %d", m)
	}
	if err := CreateTPCDSIndexes(db); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{TPCHQ8(), TPCHQ9(), TPCDSQ17(), TPCDSQ50()} {
		res, err := db.Query(sql, nil)
		if err != nil {
			t.Fatalf("workload query failed: %v", err)
		}
		if res.Metrics.Plan == "" {
			t.Error("no plan reported")
		}
	}
}

func TestCreateDatasetErrors(t *testing.T) {
	db := Open(Config{Nodes: 2})
	err := db.CreateDataset("bad", NewSchema(F("a", KindInt)), []string{"zz"}, []Tuple{{Int(1)}})
	if err == nil {
		t.Error("bad pk did not error")
	}
}

func TestReoptBudget(t *testing.T) {
	db := Open(Config{Nodes: 4, ReoptBudget: 1})
	if _, err := LoadTPCDS(db, 1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(TPCDSQ17(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Reopts > 1 {
		t.Errorf("reopts = %d exceeds budget 1", res.Metrics.Reopts)
	}
	// Unbounded comparison returns the same rows.
	db2 := Open(Config{Nodes: 4})
	if _, err := LoadTPCDS(db2, 1); err != nil {
		t.Fatal(err)
	}
	res2, err := db2.Query(TPCDSQ17(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(res2.Rows) {
		t.Errorf("budgeted rows %d != unbounded rows %d", len(res.Rows), len(res2.Rows))
	}
}

func TestAggregateQueryViaAPI(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT u.u_grp, count(o.o_id) AS n, avg(o.o_amt) AS a
		FROM orders o, users u WHERE o.o_user = u.u_id
		GROUP BY u.u_grp ORDER BY u.u_grp`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].I()
	}
	if total != 3000 {
		t.Errorf("counts sum to %d, want 3000", total)
	}
	if res.Columns[1] != "n" || res.Columns[2] != "a" {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestGroupKeyIsUnambiguous: grouping keys that differ only in where one
// value's text ends and the next begins are different groups. Both GROUP BY
// paths once keyed a group by its values' quoted forms joined with '|', which
// spells ("a'|'b", "c") and ("a", "b'|'c") the same way.
func TestGroupKeyIsUnambiguous(t *testing.T) {
	db := Open(Config{Nodes: 2})
	rows := []Tuple{
		{Int(1), Str("a'|'b"), Str("c")},
		{Int(2), Str("a"), Str("b'|'c")},
		{Int(3), Str("NULL"), Null()},
		{Int(4), Null(), Str("NULL")},
	}
	if err := db.CreateDataset("r", NewSchema(F("id", KindInt), F("x", KindString), F("y", KindString)), []string{"id"}, rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT r.x, r.y, count(r.id) AS n FROM r r GROUP BY r.x, r.y", // hash aggregate
		"SELECT r.x, r.y FROM r r GROUP BY r.x, r.y",                   // duplicate elimination
	} {
		res, err := db.Query(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != len(rows) {
			t.Errorf("%s: %d groups, want %d (every row is its own group): %v", q, len(res.Rows), len(rows), res.Rows)
		}
		for _, r := range res.Rows {
			if len(r) == 3 && r[2].I() != 1 {
				t.Errorf("%s: group (%s, %s) counts %d rows, want 1", q, r[0], r[1], r[2].I())
			}
		}
	}
}

// TestCreateDatasetCopiesRows: the DB owns what it loaded. A caller that
// refills, re-slices or clears the rows it passed to CreateDataset — a bulk
// loader reusing one batch buffer — changes neither the answer nor the
// metered cost of a later query.
func TestCreateDatasetCopiesRows(t *testing.T) {
	load := func(reuse bool) *Result {
		db := Open(Config{Nodes: 4})
		rows := make([]Tuple, 500)
		for i := range rows {
			rows[i] = Tuple{Int(int64(i)), Int(int64(i % 7)), Str("pad")}
		}
		if err := db.CreateDataset("a", NewSchema(F("id", KindInt), F("grp", KindInt), F("pad", KindString)), []string{"id"}, rows); err != nil {
			t.Fatal(err)
		}
		if reuse {
			for i := range rows {
				rows[i][0], rows[i][1], rows[i][2] = Int(-1), Null(), Str("reused")
			}
			rows[0] = rows[0][:1]
			clear(rows[1:])
		}
		// The same buffer, refilled, loads the second table.
		rows = rows[:7]
		for i := range rows {
			rows[i] = Tuple{Int(int64(i)), Int(int64(i * 100)), Str("b")}
		}
		if err := db.CreateDataset("b", NewSchema(F("grp", KindInt), F("score", KindInt), F("pad", KindString)), []string{"grp"}, rows); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(`SELECT a.id, b.score FROM a a, b b WHERE a.grp = b.grp AND b.score >= 300`, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := load(false), load(true)
	if len(want.Rows) == 0 {
		t.Fatal("vacuous: the query returned nothing")
	}
	if rowsKey(want) != rowsKey(got) {
		t.Errorf("rows changed when the caller reused its slice after CreateDataset: %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	if want.Metrics.Counters != got.Metrics.Counters {
		t.Errorf("counters changed when the caller reused its slice:\nwant %+v\n got %+v", want.Metrics.Counters, got.Metrics.Counters)
	}
}
