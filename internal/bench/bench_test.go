package bench

import (
	"strings"
	"testing"

	"dynopt/internal/core"
)

func TestQueries(t *testing.T) {
	qs := Queries()
	if len(qs) != 4 {
		t.Fatalf("queries = %d", len(qs))
	}
	names := map[string]bool{}
	for _, q := range qs {
		names[q.Name] = true
		if q.SQL == "" {
			t.Errorf("%s has empty SQL", q.Name)
		}
	}
	for _, want := range []string{"Q17", "Q50", "Q8", "Q9"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestEnvFreshIsolation(t *testing.T) {
	env, err := NewEnv(1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := env.Fresh(), env.Fresh()
	if a.Catalog == b.Catalog {
		t.Error("Fresh contexts share a catalog")
	}
	if a.Cluster == b.Cluster {
		t.Error("Fresh contexts share a cluster")
	}
	// Data shared underneath: both resolve lineitem.
	if _, ok := a.Catalog.Get("lineitem"); !ok {
		t.Error("clone lost lineitem")
	}
	if _, ok := a.Catalog.Get("store_sales"); !ok {
		t.Error("clone lost store_sales")
	}
}

func TestEnvStrategies(t *testing.T) {
	env, err := NewEnv(1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	ss := env.Strategies()
	if len(ss) != 6 {
		t.Fatalf("strategies = %d", len(ss))
	}
	seen := map[string]bool{}
	for _, s := range ss {
		seen[s.Name()] = true
	}
	for _, want := range StrategyOrder {
		if !seen[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
}

func TestFigure6OverheadShape(t *testing.T) {
	rows, err := Figure6Overhead([]int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.UpfrontSim <= 0 || r.ReoptSim <= 0 || r.FullSim <= 0 {
			t.Errorf("%s: non-positive sims %+v", r.Query, r)
		}
		// Statistics-upfront (one pipelined job of the dynamic-found plan)
		// must be the cheapest of the three executions.
		if r.UpfrontSim > r.ReoptSim || r.UpfrontSim > r.FullSim {
			t.Errorf("%s: upfront (%v) not cheapest (reopt %v, full %v)",
				r.Query, r.UpfrontSim, r.ReoptSim, r.FullSim)
		}
		// Re-optimization overhead lands in a plausible band (paper: ≤~20%).
		if f := r.ReoptOverheadFrac(); f < 0 || f > 0.8 {
			t.Errorf("%s: reopt overhead %v out of band", r.Query, f)
		}
		// Online-statistics cost is small; it may even be negative — the
		// no-sketch run can pick a worse plan, i.e. the sketches pay for
		// themselves (see EXPERIMENTS.md).
		if f := r.StatsOverheadFrac(); f < -0.2 || f > 0.3 {
			t.Errorf("%s: stats overhead %v out of band", r.Query, f)
		}
	}
	out := FormatOverhead(rows)
	if !strings.Contains(out, "Q17") || !strings.Contains(out, "reopt%") {
		t.Errorf("FormatOverhead:\n%s", out)
	}
}

func TestFigure6PushdownShape(t *testing.T) {
	rows, err := Figure6Pushdown([]int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BaselineSim <= 0 || r.PushdownSim <= 0 {
			t.Errorf("%s: non-positive sims", r.Query)
		}
		// Push-down adds bounded overhead over the oracle baseline.
		if f := r.OverheadFrac(); f < -0.35 || f > 0.8 {
			t.Errorf("%s: pushdown overhead %v out of band", r.Query, f)
		}
	}
	if out := FormatPushdown(rows); !strings.Contains(out, "overhead") {
		t.Errorf("FormatPushdown:\n%s", out)
	}
}

func TestFigure7ShapeHolds(t *testing.T) {
	rows, err := Figure7([]int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		dyn := r.Sim["dynamic"]
		worst := r.Sim["worst-order"]
		if dyn <= 0 {
			t.Fatalf("%s: dynamic sim %v", r.Query, dyn)
		}
		// The headline claim: dynamic beats worst-order everywhere.
		if worst < dyn {
			t.Errorf("%s: worst-order (%v) beat dynamic (%v)", r.Query, worst, dyn)
		}
		for _, s := range StrategyOrder {
			if r.Sim[s] <= 0 {
				t.Errorf("%s: %s sim missing", r.Query, s)
			}
			if r.Plan[s] == "" {
				t.Errorf("%s: %s plan missing", r.Query, s)
			}
		}
	}
	if out := FormatCompare(rows); !strings.Contains(out, "worst-order") {
		t.Errorf("FormatCompare:\n%s", out)
	}
}

func TestFigure8INLJAppears(t *testing.T) {
	rows, err := Figure8([]int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// At least the dynamic plans for Q50 and Q9 must use ⋈i (§7.2.3/7.2.4).
	used := map[string]bool{}
	for _, r := range rows {
		if strings.Contains(r.Plan["dynamic"], "⋈i") {
			used[r.Query] = true
		}
	}
	for _, q := range []string{"Q50", "Q9"} {
		if !used[q] {
			t.Errorf("%s dynamic plan did not use INLJ", q)
		}
	}
}

func TestTable1Ratios(t *testing.T) {
	rows, err := Figure7([]int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t1 := Table1(rows)
	if len(t1) != 1 {
		t.Fatalf("table1 rows = %d", len(t1))
	}
	r := t1[0]
	if r.Improvement["worst-order"] <= 1 {
		t.Errorf("worst-order improvement %vx, want > 1x", r.Improvement["worst-order"])
	}
	// Best-order is the only baseline allowed to beat dynamic (ratio < 1).
	if r.Improvement["best-order"] > 1.0 {
		t.Errorf("best-order ratio %vx, want ≤ 1x (dynamic carries re-opt overhead)", r.Improvement["best-order"])
	}
	if out := FormatTable1(t1); !strings.Contains(out, "x") {
		t.Errorf("FormatTable1:\n%s", out)
	}
}

// TestAblationBroadcastThreshold pins the paper's claim that broadcast
// opportunities (unlocked by accurate post-predicate sizes) drive much of
// the improvement: on every evaluation query the default threshold
// broadcasts something and costs fewer simulated seconds than threshold 0,
// which plans hash-only.
func TestAblationBroadcastThreshold(t *testing.T) {
	env, err := NewEnv(1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	run := func(q Query, threshold int64) *core.Report {
		cfg := core.DefaultConfig()
		cfg.Algo.BroadcastThresholdBytes = threshold
		rep, err := env.RunOne(&core.Dynamic{Cfg: cfg}, q.SQL)
		if err != nil {
			t.Fatalf("%s threshold %d: %v", q.Name, threshold, err)
		}
		return rep
	}
	for _, q := range Queries() {
		hashOnly := run(q, 0)
		def := run(q, core.DefaultAlgoConfig().BroadcastThresholdBytes)
		if strings.Contains(hashOnly.Compact(), "⋈b") {
			t.Errorf("%s: threshold 0 still broadcast: %s", q.Name, hashOnly.Compact())
		}
		if !strings.Contains(def.Compact(), "⋈b") {
			t.Errorf("%s: default threshold never broadcast: %s", q.Name, def.Compact())
		}
		if def.SimSeconds >= hashOnly.SimSeconds {
			t.Errorf("%s: broadcasts (%.3fs) did not beat hash-only (%.3fs)",
				q.Name, def.SimSeconds, hashOnly.SimSeconds)
		}
	}
}
