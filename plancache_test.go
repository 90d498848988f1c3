package dynopt

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// loadEvalDB loads both evaluation workloads at sf 1 on a 4-node layout.
func loadEvalDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	db := Open(cfg)
	if _, err := LoadTPCH(db, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTPCDS(db, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// rowsKey renders a result's rows (in order) for byte-identity comparison.
func rowsKey(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPlanMemoReplayEquivalence pins the acceptance contract on the
// Figure-7 queries: the second execution of each shape replays the memoized
// plan with zero blocking re-optimization points and produces rows
// byte-identical to the plain dynamic loop.
func TestPlanMemoReplayEquivalence(t *testing.T) {
	plain := loadEvalDB(t, Config{})
	cached := loadEvalDB(t, Config{PlanCacheEntries: 32})
	queries := map[string]string{
		"Q17": TPCDSQ17(), "Q50": TPCDSQ50(), "Q8": TPCHQ8(), "Q9": TPCHQ9(),
	}
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			base, err := plain.Query(sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := cached.Query(sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Metrics.CacheHit {
				t.Error("first execution reported a cache hit")
			}
			if got, want := rowsKey(cold), rowsKey(base); got != want {
				t.Fatal("cold cached run rows differ from plain dynamic rows")
			}
			hot, err := cached.Query(sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !hot.Metrics.CacheHit {
				t.Fatalf("second execution did not replay:\n%s", strings.Join(hot.Metrics.Stages, "\n"))
			}
			if hot.Metrics.ReplayFellBack {
				t.Errorf("replay fell back:\n%s", strings.Join(hot.Metrics.Stages, "\n"))
			}
			if hot.Metrics.Reopts != 0 {
				t.Errorf("replay crossed %d blocking re-opt points, want 0", hot.Metrics.Reopts)
			}
			if got, want := rowsKey(hot), rowsKey(base); got != want {
				t.Fatal("replayed rows differ from plain dynamic rows")
			}
			if hot.Metrics.Plan != base.Metrics.Plan {
				t.Errorf("replayed plan %s != dynamic plan %s", hot.Metrics.Plan, base.Metrics.Plan)
			}
		})
	}
}

// swingDB builds a workload whose join fan-out swings ~200× with the $g
// binding while the pushed-down dimension keeps the same cardinality:
// d0 ids 0..49 (grp 0) match one fact row each, ids 50..99 (grp 1) match
// 200 each. The pushdown guardrail therefore passes for both bindings and
// only the join-stage guardrail can catch the swing.
func swingDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	db := Open(cfg)
	d0 := make([]Tuple, 100)
	for i := range d0 {
		d0[i] = Tuple{Int(int64(i)), Int(int64(i / 50))}
	}
	if err := db.CreateDataset("d0", NewSchema(F("id", KindInt), F("grp", KindInt)), []string{"id"}, d0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d2"} {
		rows := make([]Tuple, 500)
		for i := range rows {
			rows[i] = Tuple{Int(int64(i)), Int(int64(i % 7))}
		}
		if err := db.CreateDataset(name, NewSchema(F(name+"_id", KindInt), F(name+"_v", KindInt)), []string{name + "_id"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	const factN = 50 + 50*200
	fact := make([]Tuple, factN)
	for i := range fact {
		fk0 := int64(i)
		if i >= 50 {
			fk0 = 50 + int64(i-50)/200
		}
		fact[i] = Tuple{Int(int64(i)), Int(fk0), Int(int64(i % 500)), Int(int64(i % 500))}
	}
	if err := db.CreateDataset("fact", NewSchema(
		F("f_id", KindInt), F("fk0", KindInt), F("fk1", KindInt), F("fk2", KindInt),
	), []string{"f_id"}, fact); err != nil {
		t.Fatal(err)
	}
	return db
}

const swingQuery = `SELECT fact.f_id FROM fact, d0, d1, d2
WHERE fact.fk0 = d0.id AND fact.fk1 = d1.d1_id AND fact.fk2 = d2.d2_id AND d0.grp = $g`

// TestPlanMemoFallbackMidQuery injects a cardinality mis-estimate: the memo
// is recorded under a binding where the first join stage yields 50 rows,
// then replayed under one where it yields 10000. The stage guardrail must
// abort the replay mid-query and the dynamic loop must finish correctly
// from the already-materialized intermediate.
func TestPlanMemoFallbackMidQuery(t *testing.T) {
	db := swingDB(t, Config{PlanCacheEntries: 8})
	plain := swingDB(t, Config{})

	bind := func(g int64) *QueryOptions {
		return &QueryOptions{Params: map[string]Value{"g": Int(g)}}
	}
	// Record under $g = 0 (tiny fan-out) and confirm the shape replays.
	if _, err := db.Query(swingQuery, bind(0)); err != nil {
		t.Fatal(err)
	}
	hit, err := db.Query(swingQuery, bind(0))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Metrics.CacheHit {
		t.Fatalf("same-binding run did not replay:\n%s", strings.Join(hit.Metrics.Stages, "\n"))
	}
	if len(hit.Rows) != 50 {
		t.Fatalf("g=0 rows = %d, want 50", len(hit.Rows))
	}

	// Replay under $g = 1: the join stage observes ~200× the recorded rows.
	swung, err := db.Query(swingQuery, bind(1))
	if err != nil {
		t.Fatal(err)
	}
	if swung.Metrics.CacheHit {
		t.Error("out-of-band run still reported a full replay")
	}
	if !swung.Metrics.ReplayFellBack {
		t.Fatalf("expected mid-query fallback:\n%s", strings.Join(swung.Metrics.Stages, "\n"))
	}
	base, err := plain.Query(swingQuery, bind(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(swung.Rows) != 10000 || rowsKey(swung) != rowsKey(base) {
		t.Fatalf("fallback rows = %d, want 10000 identical to dynamic", len(swung.Rows))
	}

	// The fallback re-recorded the shape: the next $g = 1 run replays.
	again, err := db.Query(swingQuery, bind(1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Metrics.CacheHit {
		t.Errorf("re-recorded shape did not replay:\n%s", strings.Join(again.Metrics.Stages, "\n"))
	}
	if rowsKey(again) != rowsKey(base) {
		t.Error("re-recorded replay rows differ")
	}
}

// warmShape runs sql twice and asserts the second run replays; it returns
// nothing — a failure here means the memo plumbing itself broke.
func warmShape(t *testing.T, db *DB, sql string, opts *QueryOptions) {
	t.Helper()
	if _, err := db.Query(sql, opts); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.CacheHit {
		t.Fatalf("shape did not warm:\n%s", strings.Join(res.Metrics.Stages, "\n"))
	}
}

// invalidationDB is testDB with the plan memo enabled.
func invalidationDB(t *testing.T) *DB {
	t.Helper()
	return invalidationDBWith(t, Config{Nodes: 4, PlanCacheEntries: 16})
}

func invalidationDBWith(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := Open(cfg)
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
		items[i] = Tuple{Int(int64(i)), Str("item")}
	}
	if err := db.CreateDataset("items", NewSchema(
		F("i_id", KindInt), F("i_name", KindString),
	), []string{"i_id"}, items); err != nil {
		t.Fatal(err)
	}
	return db
}

const invQuery = `SELECT o.o_id FROM orders o, users u, items i
WHERE o.o_user = u.u_id AND o.o_item = i.i_id AND u.u_grp = 3 AND u.u_id < 399`

// TestPlanMemoInvalidation exercises the catalog hooks: re-registering,
// indexing, or dropping a referenced dataset evicts the shape; unrelated
// catalog changes do not.
func TestPlanMemoInvalidation(t *testing.T) {
	db := invalidationDB(t)

	// CreateDataset on a referenced name evicts — and the next run sees the
	// new data, not the memoized world.
	warmShape(t, db, invQuery, nil)
	users2 := make([]Tuple, 200)
	for i := range users2 {
		users2[i] = Tuple{Int(int64(i)), Int(int64(i % 4)), Str("v2")}
	}
	if err := db.CreateDataset("users", NewSchema(
		F("u_id", KindInt), F("u_grp", KindInt), F("u_pad", KindString),
	), []string{"u_id"}, users2); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CacheHit {
		t.Error("replaced dataset did not evict the shape")
	}
	// u_grp=3 now keeps 50 of 200 users (i%4 == 3), o_user spans 0..399 of
	// which only 0..199 exist → orders with o_user%4==3 and o_user<200.
	want := 0
	for i := 0; i < 3000; i++ {
		u := i % 400
		if u < 200 && u%4 == 3 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("post-replacement rows = %d, want %d", len(res.Rows), want)
	}

	// CreateIndex on a referenced dataset evicts.
	warmShape(t, db, invQuery, nil)
	if err := db.CreateIndex("orders", "o_user"); err != nil {
		t.Fatal(err)
	}
	res2, err := db.Query(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.CacheHit {
		t.Error("index build did not evict the shape")
	}

	// DropDataset evicts; the shape re-records after the dataset returns.
	warmShape(t, db, invQuery, nil)
	if err := db.DropDataset("items"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(invQuery, nil); err == nil {
		t.Error("query over dropped dataset did not error")
	}
	items := make([]Tuple, 50)
	for i := range items {
		items[i] = Tuple{Int(int64(i)), Str("item")}
	}
	if err := db.CreateDataset("items", NewSchema(
		F("i_id", KindInt), F("i_name", KindString),
	), []string{"i_id"}, items); err != nil {
		t.Fatal(err)
	}
	res3, err := db.Query(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Metrics.CacheHit {
		t.Error("dropped+recreated dataset replayed a stale plan")
	}

	// An unrelated dataset change must NOT evict.
	warmShape(t, db, invQuery, nil)
	if err := db.CreateDataset("unrelated", NewSchema(F("x", KindInt)), []string{"x"},
		[]Tuple{{Int(1)}}); err != nil {
		t.Fatal(err)
	}
	res4, err := db.Query(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res4.Metrics.CacheHit {
		t.Error("unrelated catalog change evicted the shape")
	}
}

// TestPlanMemoLRUCap: with capacity 2, a third shape evicts the least
// recently used one.
func TestPlanMemoLRUCap(t *testing.T) {
	db := Open(Config{Nodes: 2, PlanCacheEntries: 2})
	for _, name := range []string{"a", "b", "c", "d"} {
		rows := make([]Tuple, 60)
		for i := range rows {
			rows[i] = Tuple{Int(int64(i)), Int(int64(i % 6))}
		}
		if err := db.CreateDataset(name, NewSchema(F(name+"_id", KindInt), F(name+"_v", KindInt)),
			[]string{name + "_id"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	shape := func(x, y string) string {
		return fmt.Sprintf("SELECT %s.%s_id FROM %s, %s WHERE %s.%s_id = %s.%s_id AND %s.%s_v = 2",
			x, x, x, y, x, x, y, y, x, x)
	}
	qa, qb, qc := shape("a", "b"), shape("b", "c"), shape("c", "d")
	run := func(sql string) bool {
		res, err := db.Query(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.CacheHit
	}
	run(qa) // record A
	if !run(qa) {
		t.Fatal("A did not warm")
	}
	run(qb) // record B (A, B cached)
	run(qc) // record C → evicts A (LRU)
	if run(qa) {
		t.Error("A survived past the LRU cap")
	}
	// A's re-record just evicted B (the new LRU); C must still be hot.
	if !run(qc) {
		t.Error("C was evicted out of LRU order")
	}
}

// TestPlanMemoNoCache: NoCache neither replays nor records.
func TestPlanMemoNoCache(t *testing.T) {
	db := invalidationDB(t)
	for i := 0; i < 2; i++ {
		res, err := db.Query(invQuery, &QueryOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.CacheHit {
			t.Error("NoCache run reported a cache hit")
		}
	}
	// Nothing was recorded: the first normal run is a miss.
	res, err := db.Query(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CacheHit {
		t.Error("NoCache runs recorded an entry")
	}
	// A warmed shape is NOT replayed by a NoCache run.
	warmShape(t, db, invQuery, nil)
	res2, err := db.Query(invQuery, &QueryOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.CacheHit {
		t.Error("NoCache run replayed a memoized plan")
	}
}

// TestExplainReportsPlanCache: Explain shows hit/miss without executing
// against the memo (no recording, no LRU perturbation).
func TestExplainReportsPlanCache(t *testing.T) {
	db := invalidationDB(t)
	out, err := db.Explain(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan cache: miss") {
		t.Errorf("unwarmed explain output:\n%s", out)
	}
	warmShape(t, db, invQuery, nil)
	out2, err := db.Explain(invQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "plan cache: hit") {
		t.Errorf("warmed explain output:\n%s", out2)
	}
	// Different constants, same shape: still a hit.
	out3, err := db.Explain(strings.Replace(invQuery, "u.u_grp = 3", "u.u_grp = 5", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "plan cache: hit") {
		t.Errorf("same-shape explain output:\n%s", out3)
	}
	// A cache-less DB reports nothing about the plan cache.
	plain := testDB(t)
	out4, err := plain.Explain(apiQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out4, "plan cache") {
		t.Errorf("cache-less explain mentions the plan cache:\n%s", out4)
	}
}

// TestShapeKeyFollowsSpillBudget: the key Explain probes the memo with
// (shapeKeyFor) is the key the dynamic run recorded under (Dynamic.Body), in
// each state a DB's spill configuration can be in — and a spill directory
// with no positive memory budget, which the engine runs on the simulated
// model, plans and keys as the simulated run it is rather than under a
// negative budget.
func TestShapeKeyFollowsSpillBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		device bool
		memory int64
		tag    string
	}{
		{"no device", false, 0, " spill=0 "},
		{"device, budget disabled", true, -1, " spill=0 "},
		{"device, budget", true, 1 << 20, " spill=1048576 "},
	} {
		cfg := Config{Nodes: 4, PlanCacheEntries: 16, MemoryPerNodeBytes: tc.memory}
		if tc.device {
			cfg.SpillDir = t.TempDir()
		}
		db := invalidationDBWith(t, cfg)
		if _, err := db.Query(invQuery, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		key, err := db.shapeKeyFor(invQuery, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(key, tc.tag) {
			t.Errorf("%s: shape key carries the wrong spill budget, want %q in\n%s", tc.name, tc.tag, key)
		}
		if db.memo.Peek(key) == nil {
			t.Errorf("%s: the run recorded its plan under another key than shapeKeyFor's\n%s", tc.name, key)
		}
	}
}

// TestPlanMemoConcurrentServing hammers one parameterized shape from many
// goroutines with rotating bindings — the serving scenario the memo exists
// for. Run under -race this doubles as the store's concurrency test.
func TestPlanMemoConcurrentServing(t *testing.T) {
	db := invalidationDB(t)
	sql := `SELECT o.o_id FROM orders o, users u, items i
WHERE o.o_user = u.u_id AND o.o_item = i.i_id AND u.u_grp = $g`
	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g := int64((w + i) % 8)
				res, err := db.Query(sql, &QueryOptions{Params: map[string]Value{"g": Int(g)}})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 375 {
					errs <- fmt.Errorf("g=%d rows = %d, want 375", g, len(res.Rows))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the storm, the shape replays.
	res, err := db.Query(sql, &QueryOptions{Params: map[string]Value{"g": Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.CacheHit {
		t.Errorf("shape not hot after concurrent serving:\n%s", strings.Join(res.Metrics.Stages, "\n"))
	}
}

// TestPlanMemoBudgetedShapeSeparate: a plan recorded under a per-query
// MaxReopts budget occupies its own memo slot — unlimited-budget queries of
// the same statement never replay the truncated convergence.
func TestPlanMemoBudgetedShapeSeparate(t *testing.T) {
	db := wideDB(t, Config{PlanCacheEntries: 8})
	budgeted := &QueryOptions{MaxReopts: 1}
	if _, err := db.Query(wideQuery(), budgeted); err != nil {
		t.Fatal(err)
	}
	// Unlimited run: must miss (different planning universe) and cross the
	// full three blocking points.
	res, err := db.Query(wideQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CacheHit {
		t.Error("unlimited query replayed a budget-truncated plan")
	}
	if res.Metrics.Reopts != 3 {
		t.Errorf("unlimited run reopts = %d, want 3", res.Metrics.Reopts)
	}
	// Each slot is now warm for its own configuration.
	for _, opts := range []*QueryOptions{budgeted, nil} {
		res, err := db.Query(wideQuery(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.CacheHit || res.Metrics.Reopts != 0 {
			t.Errorf("opts %+v: hit=%v reopts=%d", opts, res.Metrics.CacheHit, res.Metrics.Reopts)
		}
	}
}
