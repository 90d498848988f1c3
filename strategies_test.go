package dynopt

import (
	"testing"

	"dynopt/internal/bench"
	"dynopt/internal/optimizer"
)

// TestReoptBudgetReachesDynamicOnly: Config.ReoptBudget bounds the dynamic
// strategy's blocking re-optimization points, while pilot-run and
// ingres-like run their loop unbudgeted and best-order's shadow run finds
// the unbudgeted plan. Q17 has seven joins, so the unbudgeted loops cross
// several points.
func TestReoptBudgetReachesDynamicOnly(t *testing.T) {
	budgeted := Open(Config{Nodes: 4, ReoptBudget: 1})
	unbudgeted := Open(Config{Nodes: 4})
	for _, db := range []*DB{budgeted, unbudgeted} {
		if _, err := LoadTPCDS(db, 1); err != nil {
			t.Fatal(err)
		}
	}
	run := func(db *DB, s Strategy) Metrics {
		t.Helper()
		res, err := db.Query(TPCDSQ17(), &QueryOptions{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return res.Metrics
	}
	if got := run(budgeted, StrategyDynamic).Reopts; got != 1 {
		t.Errorf("dynamic: reopts = %d, want the budget's 1", got)
	}
	for _, s := range []Strategy{StrategyPilotRun, StrategyIngres, StrategyBestOrder} {
		got, want := run(budgeted, s), run(unbudgeted, s)
		if got.Reopts != want.Reopts || got.Plan != want.Plan {
			t.Errorf("%s under ReoptBudget 1: reopts %d, plan %s; unbudgeted: reopts %d, plan %s",
				s, got.Reopts, got.Plan, want.Reopts, want.Plan)
		}
		if s != StrategyBestOrder && want.Reopts < 2 {
			t.Errorf("%s: unbudgeted reopts = %d, want a loop of several points", s, want.Reopts)
		}
	}
}

// TestStrategyTableSharedByDBAndBench: the public API and the benchmark
// environment build their strategies from the same table, so one query at
// sf 1 meters identical work under each of the six.
func TestStrategyTableSharedByDBAndBench(t *testing.T) {
	env, err := bench.NewEnv(1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Config{Nodes: 4})
	if _, err := LoadTPCDS(db, 1); err != nil {
		t.Fatal(err)
	}
	strategies := env.Strategies()
	if len(strategies) != len(optimizer.Names) {
		t.Fatalf("bench builds %d strategies, the table has %d", len(strategies), len(optimizer.Names))
	}
	for i, s := range strategies {
		name := optimizer.Names[i]
		if s.Name() != name {
			t.Fatalf("bench strategy %d is %q, want %q", i, s.Name(), name)
		}
		_, rep, err := env.RunOneResult(s, TPCDSQ17())
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(TPCDSQ17(), &QueryOptions{Strategy: Strategy(name)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Metrics.Strategy != name {
			t.Errorf("DB ran %q for %q", res.Metrics.Strategy, name)
		}
		if res.Metrics.Counters != rep.Counters {
			t.Errorf("%s: DB.Query counters\n  %v\nbench counters\n  %v", name, res.Metrics.Counters, rep.Counters)
		}
	}
}
