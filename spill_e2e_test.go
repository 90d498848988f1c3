package dynopt

import (
	"context"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"dynopt/internal/faults/leakcheck"
)

// spillDB builds the standard test DB with real spilling enabled at a
// deliberately tiny budget, so every hash join overflows.
func spillDB(t *testing.T, dir string, budget int64) *DB {
	t.Helper()
	db := testDB(t)
	db.spillDir = dir
	db.ctx.Cluster.SetMemoryPerNodeBytes(budget)
	return db
}

func sortedResultRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func dirEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return // never spilled: the root was never created
		}
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("spill dir not empty: %v", names)
	}
}

// TestSpillDirAllStrategiesIdenticalResults runs every strategy with real
// spilling at a 256-byte budget — far below every join's build side, so
// every strategy spills — and checks the rows match the in-memory run
// exactly, actual spill I/O was metered, and no run files survive.
func TestSpillDirAllStrategiesIdenticalResults(t *testing.T) {
	leakcheck.Check(t)
	memDB := testDB(t)
	dir := t.TempDir()
	db := spillDB(t, dir, 256)
	for _, s := range allStrategies {
		t.Run(string(s), func(t *testing.T) {
			want, err := memDB.Query(apiQuery, &QueryOptions{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Query(apiQuery, &QueryOptions{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			w, g := sortedResultRows(want), sortedResultRows(got)
			if len(w) != len(g) {
				t.Fatalf("row count: spill %d, in-memory %d", len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("row %d differs: spill %s, in-memory %s", i, g[i], w[i])
				}
			}
			if got.Metrics.Counters.SpillBytes == 0 {
				t.Error("256-byte budget metered no spill I/O")
			}
			dirEmpty(t, dir)
		})
	}
	if used := db.ctx.Cluster.Governor().Used(); used != 0 {
		t.Errorf("governor still holds %d bytes after all queries", used)
	}
}

// TestTPCHQ9SpillIdenticalResults is the acceptance run: TPC-H Q9 with the
// per-node budget at 1/8 of the build side's per-node bytes (lineitem, the
// largest input) completes with results identical to the in-memory run,
// meters real run-file I/O, and leaves the spill directory empty.
func TestTPCHQ9SpillIdenticalResults(t *testing.T) {
	leakcheck.Check(t)
	memDB := Open(Config{Nodes: 4, MemoryPerNodeBytes: 1 << 30})
	if _, err := LoadTPCH(memDB, 1); err != nil {
		t.Fatal(err)
	}
	want, err := memDB.Query(TPCHQ9(), nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	db := Open(Config{Nodes: 4, SpillDir: dir})
	if _, err := LoadTPCH(db, 1); err != nil {
		t.Fatal(err)
	}
	// The budget is 1/8 of the build side's per-node bytes. Lineitem only
	// ever probes in Q9 (every optimizer builds the smaller input);
	// partsupp is the largest relation that actually lands on a build side
	// (the final ⋈ ps stage), so the binding constraint is 1/8 of it.
	partsupp, ok := db.ctx.Catalog.Get("partsupp")
	if !ok {
		t.Fatal("partsupp not loaded")
	}
	budget := partsupp.ByteSize() / int64(db.Nodes()) / 8
	db.ctx.Cluster.SetMemoryPerNodeBytes(budget)

	got, err := db.Query(TPCHQ9(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, g := sortedResultRows(want), sortedResultRows(got)
	if len(w) != len(g) {
		t.Fatalf("row count: spill %d, in-memory %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d differs: spill %s, in-memory %s", i, g[i], w[i])
		}
	}
	if got.Metrics.Counters.SpillBytes == 0 || got.Metrics.Counters.SpillRows == 0 {
		t.Errorf("Q9 at 1/8 budget metered no spill: %+v", got.Metrics.Counters)
	}
	dirEmpty(t, dir)
	if used := db.ctx.Cluster.Governor().Used(); used != 0 {
		t.Errorf("governor still holds %d bytes after Q9", used)
	}
}

// TestFailingQueryLeavesSpillDirEmpty extends the temp-leak regression to
// disk: a query that spills in its joins and then fails in the final
// projection must leave no run files behind.
func TestFailingQueryLeavesSpillDirEmpty(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	db := spillDB(t, dir, 256)
	if err := db.RegisterUDF("boom", func(args []Value) (Value, error) {
		return Null(), errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	// Same join shape, no failure: confirm this workload really spills.
	ok, err := db.Query(`SELECT o.o_id FROM orders o, users u, items i
		WHERE o.o_user = u.u_id AND o.o_item = i.i_id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Metrics.Counters.SpillBytes == 0 {
		t.Fatal("baseline query did not spill; the failing variant would not exercise cleanup")
	}
	// boom sits in the SELECT list: it fires after the joins have spilled.
	failing := `SELECT boom(o.o_id) FROM orders o, users u, items i
		WHERE o.o_user = u.u_id AND o.o_item = i.i_id`
	if _, err := db.Query(failing, nil); err == nil {
		t.Fatal("query with failing UDF did not error")
	}
	dirEmpty(t, dir)
	if used := db.ctx.Cluster.Governor().Used(); used != 0 {
		t.Errorf("failed query left %d bytes held on the governor", used)
	}
}

// TestExplainPlansUnderSpillBudget: Explain's shadow run has the DB's spill
// device and memory budget, so the plan it prints is the one Query runs — an
// over-budget broadcast is downgraded in both or in neither — and the shadow's
// run files are swept with it.
func TestExplainPlansUnderSpillBudget(t *testing.T) {
	for _, s := range []Strategy{StrategyDynamic, StrategyCostBased} {
		t.Run(string(s), func(t *testing.T) {
			dir := t.TempDir()
			db := spillDB(t, dir, 256)
			opts := &QueryOptions{Strategy: s}
			res := mustQuery(t, db, apiQuery, opts)
			if res.Metrics.Counters.SpillBytes == 0 {
				t.Fatal("vacuous: the query did not spill at this budget")
			}
			out, err := db.Explain(apiQuery, opts)
			if err != nil {
				t.Fatal(err)
			}
			if plan, _, _ := strings.Cut(out, "\n"); plan != res.Metrics.Plan {
				t.Errorf("Explain shows %q, Query ran %q", plan, res.Metrics.Plan)
			}
			dirEmpty(t, dir)
			if used := db.ctx.Cluster.Governor().Used(); used != 0 {
				t.Errorf("Explain left %d bytes held on the live governor", used)
			}
		})
	}
}

// TestCancelledQueryLeavesSpillDirEmpty: cancellation mid-run releases the
// grant and sweeps the spill directory.
func TestCancelledQueryLeavesSpillDirEmpty(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	db := spillDB(t, dir, 256)
	blocked := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	if err := db.RegisterUDF("block", func(args []Value) (Value, error) {
		select {
		case <-blocked:
		default:
			close(blocked)
			cancel() // cancel while the query is mid-flight
		}
		return Bool(true), nil
	}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT o.o_id FROM orders o, users u, items i
		WHERE o.o_user = u.u_id AND o.o_item = i.i_id AND block(i.i_id)`
	if _, err := db.QueryCtx(ctx, q, nil); err == nil {
		t.Fatal("cancelled query did not error")
	}
	dirEmpty(t, dir)
	if used := db.ctx.Cluster.Governor().Used(); used != 0 {
		t.Errorf("cancelled query left %d bytes held on the governor", used)
	}
}

// TestConcurrentSpillingQueriesClean runs a mix of succeeding and failing
// spilling queries concurrently: results stay correct and the spill root
// ends empty — the disk counterpart of the catalog temp-leak regression.
func TestConcurrentSpillingQueriesClean(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	db := spillDB(t, dir, 256)
	if err := db.RegisterUDF("boom", func(args []Value) (Value, error) {
		return Null(), errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	base, err := db.Query(apiQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(base.Rows)
	failing := `SELECT boom(o.o_id) FROM orders o, users u, items i
		WHERE o.o_user = u.u_id AND o.o_item = i.i_id`

	var wg sync.WaitGroup
	errCh := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%3 == 0 {
				if _, err := db.Query(failing, nil); err == nil {
					errCh <- errors.New("failing query did not error")
				}
				return
			}
			res, err := db.Query(apiQuery, nil)
			if err != nil {
				errCh <- err
				return
			}
			if len(res.Rows) != wantRows {
				errCh <- errors.New("concurrent spilling query returned wrong row count")
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	dirEmpty(t, dir)
	if used := db.ctx.Cluster.Governor().Used(); used != 0 {
		t.Errorf("governor still holds %d bytes after the storm", used)
	}
}
