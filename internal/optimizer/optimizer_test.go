package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// testWorkload mirrors core's mini star schema: correlated predicates on
// dim_a, UDF on dim_b, unfiltered dim_c.
func testWorkload(t *testing.T, nodes int) *engine.Context {
	t.Helper()
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
	}
	mk := func(name string, pk []string, fields []types.Field, rows []types.Tuple) {
		ds, st, err := storage.Build(name, &types.Schema{Fields: fields}, pk, rows, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Catalog.Register(ds, st); err != nil {
			t.Fatal(err)
		}
	}
	intF := func(n string) types.Field { return types.Field{Name: n, Kind: types.KindInt} }
	strF := func(n string) types.Field { return types.Field{Name: n, Kind: types.KindString} }

	factRows := make([]types.Tuple, 5000)
	for i := range factRows {
		factRows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 500)), types.Int(int64(i % 200)),
			types.Int(int64(i % 1000)), types.Int(int64(i)),
		}
	}
	mk("fact", []string{"f_id"},
		[]types.Field{intF("f_id"), intF("fk_a"), intF("fk_b"), intF("fk_c"), intF("m")}, factRows)

	dimARows := make([]types.Tuple, 500)
	for i := range dimARows {
		dimARows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 10)), types.Int(int64(i % 10)),
			types.Str(strings.Repeat("a", 20)),
		}
	}
	mk("dim_a", []string{"a_id"},
		[]types.Field{intF("a_id"), intF("a_v"), intF("a_w"), strF("a_pad")}, dimARows)

	dimBRows := make([]types.Tuple, 200)
	for i := range dimBRows {
		dimBRows[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("19%d-01-01", 90+i%5)),
			types.Str(strings.Repeat("b", 20)),
		}
	}
	mk("dim_b", []string{"b_id"},
		[]types.Field{intF("b_id"), strF("b_date"), strF("b_pad")}, dimBRows)

	dimCRows := make([]types.Tuple, 1000)
	for i := range dimCRows {
		dimCRows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 7)), types.Str(strings.Repeat("c", 20)),
		}
	}
	mk("dim_c", []string{"c_id"},
		[]types.Field{intF("c_id"), intF("c_v"), strF("c_pad")}, dimCRows)
	return ctx
}

const testQuery = `SELECT fact.m FROM fact, dim_a, dim_b, dim_c
WHERE fact.fk_a = dim_a.a_id AND fact.fk_b = dim_b.b_id AND fact.fk_c = dim_c.c_id
  AND dim_a.a_v = 3 AND dim_a.a_w = 3
  AND myyear(dim_b.b_date) = 1993`

func expectedRows() []int64 {
	var out []int64
	for i := 0; i < 5000; i++ {
		if (i%500)%10 == 3 && (i%200)%5 == 3 {
			out = append(out, int64(i))
		}
	}
	return out
}

func resultInts(res *engine.Result) []int64 {
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].I())
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// strategy builds one strategy of the table under the default
// configuration.
func strategy(t *testing.T, name string) core.Strategy {
	t.Helper()
	s, err := New(name, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allStrategies returns every strategy under test, dynamic included.
func allStrategies(t *testing.T) []core.Strategy {
	out := make([]core.Strategy, len(Names))
	for i, name := range Names {
		out[i] = strategy(t, name)
	}
	return out
}

// Every strategy must return the same result — they differ only in cost.
func TestAllStrategiesSameResult(t *testing.T) {
	want := expectedRows()
	for _, s := range allStrategies(t) {
		t.Run(s.Name(), func(t *testing.T) {
			ctx := testWorkload(t, 4)
			res, rep, err := s.Run(ctx, testQuery)
			if err != nil {
				t.Fatalf("%s: %v\n%v", s.Name(), err, rep)
			}
			if got := resultInts(res); !sameInts(got, want) {
				t.Errorf("%s: %d rows, want %d", s.Name(), len(got), len(want))
			}
			if rep.Strategy != s.Name() {
				t.Errorf("report strategy = %q", rep.Strategy)
			}
			if rep.SimSeconds <= 0 {
				t.Errorf("%s: no simulated time", s.Name())
			}
		})
	}
}

func TestWorstOrderIsWorst(t *testing.T) {
	// Two cost views of the same metered counters: zero-latency (pure data
	// movement and CPU — where bad join orders hurt) and the full model
	// (including per-reopt coordinator latency — where the dynamic
	// approach's overhead vs best-order shows). At this toy scale the fixed
	// latencies would otherwise drown the data costs entirely.
	zero := cluster.DefaultCostModel()
	zero.ReoptLatencySec = 0
	full := cluster.DefaultCostModel()

	simZero := map[string]float64{}
	simFull := map[string]float64{}
	for _, s := range allStrategies(t) {
		ctx := testWorkload(t, 4)
		_, rep, err := s.Run(ctx, testQuery)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		simZero[s.Name()] = zero.SimSeconds(rep.Counters, ctx.Cluster.Nodes())
		simFull[s.Name()] = full.SimSeconds(rep.Counters, ctx.Cluster.Nodes())
	}
	for name, sim := range simZero {
		if name == "worst-order" {
			continue
		}
		if simZero["worst-order"] < sim {
			t.Errorf("worst-order (%.4fs) beat %s (%.4fs) on data movement", simZero["worst-order"], name, sim)
		}
	}
	// Best-order must win once the re-optimization latency is priced in —
	// the Figure 7 relationship (dynamic ≈ best-order × 1.05–1.2).
	if simFull["best-order"] > simFull["dynamic"] {
		t.Errorf("best-order (%.4fs) slower than dynamic (%.4fs) under the full model",
			simFull["best-order"], simFull["dynamic"])
	}
}

func TestCostBasedMisestimatesCorrelatedPredicates(t *testing.T) {
	// Cost-based sees ~5 rows for dim_a (independence) where dynamic
	// measures 50; both still complete and agree on results, but their
	// plans may differ. This asserts the estimate gap is visible in the
	// plan report (the dim_a leaf estimate).
	ctx := testWorkload(t, 4)
	cb := strategy(t, "cost-based")
	_, rep, err := cb.Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tree == nil {
		t.Fatal("no plan tree")
	}
	if rep.Counters.ReoptPoints != 0 {
		t.Errorf("static strategy crossed %d reopt points", rep.Counters.ReoptPoints)
	}
	if rep.Counters.MatWriteBytes != 0 {
		t.Errorf("static strategy materialized %d bytes", rep.Counters.MatWriteBytes)
	}
}

func TestBestOrderNoReoptOverhead(t *testing.T) {
	ctx := testWorkload(t, 4)
	bo := strategy(t, "best-order")
	_, rep, err := bo.Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.ReoptPoints != 0 {
		t.Errorf("best-order crossed %d reopt points", rep.Counters.ReoptPoints)
	}
	if rep.Counters.MatWriteBytes != 0 {
		t.Errorf("best-order materialized %d bytes", rep.Counters.MatWriteBytes)
	}
	// Its plan is the dynamic plan: same compact shape modulo estimates.
	ctx2 := testWorkload(t, 4)
	_, drep, err := strategy(t, "dynamic").Run(ctx2, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compact() != drep.Compact() {
		t.Errorf("best-order plan %s != dynamic plan %s", rep.Compact(), drep.Compact())
	}
	// Shadow run must not leak temps into the live catalog.
	for _, name := range ctx.Catalog.Names() {
		if strings.HasPrefix(name, "tmp_") {
			t.Errorf("leaked temp %s", name)
		}
	}
}

func TestWorstOrderShape(t *testing.T) {
	ctx := testWorkload(t, 4)
	wo := strategy(t, "worst-order")
	_, rep, err := wo.Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tree == nil {
		t.Fatal("no plan tree")
	}
	// Right-deep, hash-only: no broadcasts, no bushiness.
	compact := rep.Compact()
	if strings.Contains(compact, "⋈b") || strings.Contains(compact, "⋈i") {
		t.Errorf("worst-order used non-hash join: %s", compact)
	}
	if rep.Tree.IsBushy() {
		t.Errorf("worst-order produced a bushy tree: %s", compact)
	}
	if rep.Counters.BroadcastBytes != 0 {
		t.Error("worst-order broadcast data")
	}
	// It must shuffle far more than dynamic does.
	ctx2 := testWorkload(t, 4)
	_, drep, err := strategy(t, "dynamic").Run(ctx2, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.ShuffleBytes <= drep.Counters.ShuffleBytes {
		t.Errorf("worst-order shuffled %d <= dynamic %d",
			rep.Counters.ShuffleBytes, drep.Counters.ShuffleBytes)
	}
}

func TestPilotRunSamplingMetered(t *testing.T) {
	ctx := testWorkload(t, 4)
	pr := strategy(t, "pilot-run")
	_, rep, err := pr.Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Pilot scans are part of the strategy's metered work.
	foundPilot := false
	for _, s := range rep.StagePlans {
		if strings.HasPrefix(s, "pilot ") {
			foundPilot = true
		}
	}
	if !foundPilot {
		t.Errorf("no pilot phase recorded: %v", rep.StagePlans)
	}
	if rep.Counters.ScanRows == 0 {
		t.Error("no scan work metered")
	}
}

func TestPilotRunSampleKDefaultsAndExhaustion(t *testing.T) {
	// dim_a and dim_b have fewer qualifying rows than pilotSampleK: their
	// pilot queries exhaust the dataset and the count is exact. dim_c's stops
	// at pilotSampleK rows and extrapolates.
	ctx := testWorkload(t, 4)
	res, rep, err := strategy(t, "pilot-run").Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(resultInts(res), expectedRows()) {
		t.Error("pilot-run wrong result")
	}
	for _, want := range []string{
		"pilot dim_a: sampled 50/500 rows → est 50 rows",
		"pilot dim_b: sampled 40/200 rows → est 40 rows",
		"pilot dim_c: sampled 500/500 rows → est 1000 rows",
	} {
		if !slices.Contains(rep.StagePlans, want) {
			t.Errorf("no stage %q in %q", want, rep.StagePlans)
		}
	}
}

func TestIngresLikeDecomposesEverything(t *testing.T) {
	ctx := testWorkload(t, 4)
	il := strategy(t, "ingres-like")
	_, rep, err := il.Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Both filtered dims are decomposed (PushDownAll).
	if rep.PushDowns != 2 {
		t.Errorf("ingres pushdowns = %d, want 2", rep.PushDowns)
	}
	if rep.Counters.StatsObserved != 0 {
		t.Errorf("ingres-like collected %d online stats, want 0", rep.Counters.StatsObserved)
	}
}

func TestStrategiesOnINLJWorkload(t *testing.T) {
	// With indexes and INLJ enabled, dynamic and ingres-like pick ⋈i while
	// static upfront planners may too (their estimate sees base leaves).
	ctx := testWorkload(t, 4)
	ds, _ := ctx.Catalog.Get("fact")
	for _, f := range []string{"fk_a", "fk_b", "fk_c"} {
		if _, err := storage.BuildIndex(ds, f); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Algo.EnableINLJ = true
	d := &core.Dynamic{Cfg: cfg}
	res, rep, err := d.Run(ctx, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(resultInts(res), expectedRows()) {
		t.Error("INLJ run wrong result")
	}
	if !strings.Contains(rep.Compact(), "⋈i") {
		t.Errorf("INLJ not used: %s", rep.Compact())
	}
}
