package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// miniWorkload builds a star schema with the failure modes the paper
// targets: correlated predicates on dim_a (a_v = a_w always, so independence
// under-estimates by 10×), a UDF predicate on dim_b's date column, and an
// unfiltered dim_c.
//
//	fact(5000): fk_a=i%500, fk_b=i%200, fk_c=i%1000, m=i
//	dim_a(500): a_id=i, a_v=i%10, a_w=i%10, pad
//	dim_b(200): b_id=i, b_date='199X-01-01' with X=i%5, pad
//	dim_c(1000): c_id=i, c_v, pad
func miniWorkload(t *testing.T, nodes int) *engine.Context {
	t.Helper()
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{"target": types.Int(3)},
	}
	mkSchema := func(specs ...[2]string) *types.Schema {
		s := &types.Schema{}
		for _, sp := range specs {
			k := types.KindInt
			if sp[1] == "s" {
				k = types.KindString
			}
			s.Fields = append(s.Fields, types.Field{Name: sp[0], Kind: k})
		}
		return s
	}
	reg := func(name string, sch *types.Schema, pk []string, rows []types.Tuple) *storage.Dataset {
		ds, st, err := storage.Build(name, sch, pk, rows, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Catalog.Register(ds, st); err != nil {
			t.Fatal(err)
		}
		return ds
	}

	factRows := make([]types.Tuple, 5000)
	for i := range factRows {
		factRows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 500)), types.Int(int64(i % 200)),
			types.Int(int64(i % 1000)), types.Int(int64(i)),
		}
	}
	reg("fact", mkSchema([2]string{"f_id", "i"}, [2]string{"fk_a", "i"}, [2]string{"fk_b", "i"},
		[2]string{"fk_c", "i"}, [2]string{"m", "i"}), []string{"f_id"}, factRows)

	dimARows := make([]types.Tuple, 500)
	for i := range dimARows {
		dimARows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 10)), types.Int(int64(i % 10)),
			types.Str(strings.Repeat("a", 20)),
		}
	}
	reg("dim_a", mkSchema([2]string{"a_id", "i"}, [2]string{"a_v", "i"}, [2]string{"a_w", "i"},
		[2]string{"a_pad", "s"}), []string{"a_id"}, dimARows)

	dimBRows := make([]types.Tuple, 200)
	for i := range dimBRows {
		dimBRows[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("19%d-01-01", 90+i%5)),
			types.Str(strings.Repeat("b", 20)),
		}
	}
	reg("dim_b", mkSchema([2]string{"b_id", "i"}, [2]string{"b_date", "s"}, [2]string{"b_pad", "s"}),
		[]string{"b_id"}, dimBRows)

	dimCRows := make([]types.Tuple, 1000)
	for i := range dimCRows {
		dimCRows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 7)), types.Str(strings.Repeat("c", 20)),
		}
	}
	reg("dim_c", mkSchema([2]string{"c_id", "i"}, [2]string{"c_v", "i"}, [2]string{"c_pad", "s"}),
		[]string{"c_id"}, dimCRows)
	return ctx
}

// miniQuery joins all four tables with the paper's predicate shapes.
const miniQuery = `SELECT fact.m FROM fact, dim_a, dim_b, dim_c
WHERE fact.fk_a = dim_a.a_id AND fact.fk_b = dim_b.b_id AND fact.fk_c = dim_c.c_id
  AND dim_a.a_v = 3 AND dim_a.a_w = 3
  AND myyear(dim_b.b_date) = 1993`

// expectedMiniRows computes the reference result directly from the
// generators: fk_a%10==3 (dim_a filter) and fk_b%5==3 (dim_b year filter).
func expectedMiniRows() []int64 {
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

func TestDynamicEndToEnd(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	res, rep, err := d.Run(ctx, miniQuery)
	if err != nil {
		t.Fatalf("dynamic run: %v\nreport: %v", err, rep)
	}
	want := expectedMiniRows()
	if got := resultInts(res); !sameInts(got, want) {
		t.Fatalf("result rows = %d, want %d", len(got), len(want))
	}
	// 3 joins: one loop stage + final two-join job ⇒ 1 reopt; dim_a has two
	// (correlated) predicates and dim_b a UDF ⇒ 2 push-downs.
	if rep.PushDowns != 2 {
		t.Errorf("pushdowns = %d, want 2", rep.PushDowns)
	}
	if rep.Reopts != 1 {
		t.Errorf("reopts = %d, want 1", rep.Reopts)
	}
	if rep.Tree == nil {
		t.Fatal("no assembled tree")
	}
	if rep.Tree.JoinCount() != 3 {
		t.Errorf("assembled tree has %d joins:\n%s", rep.Tree.JoinCount(), rep.Tree.Tree())
	}
	// Temps must be cleaned up.
	for _, name := range ctx.Catalog.Names() {
		if strings.HasPrefix(name, "tmp_") {
			t.Errorf("leftover temp %s", name)
		}
	}
	if rep.SimSeconds <= 0 {
		t.Error("sim seconds not computed")
	}
	if rep.Counters.ReoptPoints != 3 {
		t.Errorf("metered reopt points = %d, want 3 (2 pushdowns + 1 stage)", rep.Counters.ReoptPoints)
	}
}

func TestDynamicChoosesSelectiveJoinFirst(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	_, rep, err := d.Run(ctx, miniQuery)
	if err != nil {
		t.Fatal(err)
	}
	// The first executed stage must join the fact table with one of the
	// filtered dimensions (a or b) — never the unfiltered dim_c first.
	if len(rep.StagePlans) < 3 {
		t.Fatalf("stage plans: %v", rep.StagePlans)
	}
	var stage1 string
	for _, s := range rep.StagePlans {
		if strings.HasPrefix(s, "stage 1:") {
			stage1 = s
		}
	}
	if stage1 == "" {
		t.Fatalf("no stage 1 in %v", rep.StagePlans)
	}
	if strings.Contains(stage1, "dim_c") {
		t.Errorf("first stage joined the unfiltered dimension: %s", stage1)
	}
	if !strings.Contains(stage1, "fact") {
		t.Errorf("first stage does not touch fact: %s", stage1)
	}
}

func TestDynamicBroadcastsFilteredDimensions(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	_, rep, err := d.Run(ctx, miniQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Compact(), "⋈b") {
		t.Errorf("no broadcast chosen in %s", rep.Compact())
	}
	if rep.Counters.BroadcastBytes == 0 {
		t.Error("no broadcast bytes metered")
	}
}

func TestOracleReproducesDynamicResult(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	res1, rep1, err := d.Run(ctx, miniQuery)
	if err != nil {
		t.Fatal(err)
	}
	o := &Static{Label: "upfront", Tree: rep1.Tree}
	res2, rep2, err := o.Run(ctx, miniQuery)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !sameInts(resultInts(res1), resultInts(res2)) {
		t.Error("oracle result differs from dynamic")
	}
	if rep2.Counters.ReoptPoints != 0 {
		t.Errorf("oracle crossed %d reopt points", rep2.Counters.ReoptPoints)
	}
	if rep2.Counters.MatWriteBytes != 0 {
		t.Errorf("oracle materialized %d bytes", rep2.Counters.MatWriteBytes)
	}
	// The whole point of Figure 6: dynamic = oracle + overhead.
	if rep1.SimSeconds <= rep2.SimSeconds {
		t.Errorf("dynamic (%.4fs) not slower than upfront oracle (%.4fs)", rep1.SimSeconds, rep2.SimSeconds)
	}
}

func TestDynamicConfigModes(t *testing.T) {
	want := expectedMiniRows()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no-online-stats", Config{Algo: DefaultAlgoConfig(), PushDown: true, ReoptLoop: true, OnlineStats: false}},
		{"pushdown-only", Config{Algo: DefaultAlgoConfig(), PushDown: true, ReoptLoop: false, OnlineStats: false}},
		{"no-pushdown", Config{Algo: DefaultAlgoConfig(), PushDown: false, ReoptLoop: true, OnlineStats: true}},
		{"ingres-mode", Config{Algo: DefaultAlgoConfig(), PushDown: true, PushDownAll: true, ReoptLoop: true, CardinalityOnly: true}},
		{"inlj-enabled", Config{Algo: AlgoConfig{BroadcastThresholdBytes: 2 << 20, EnableINLJ: true}, PushDown: true, ReoptLoop: true, OnlineStats: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := miniWorkload(t, 4)
			if c.name == "inlj-enabled" {
				ds, _ := ctx.Catalog.Get("fact")
				for _, f := range []string{"fk_a", "fk_b", "fk_c"} {
					if _, err := storage.BuildIndex(ds, f); err != nil {
						t.Fatal(err)
					}
				}
			}
			d := &Dynamic{Cfg: c.cfg}
			res, rep, err := d.Run(ctx, miniQuery)
			if err != nil {
				t.Fatalf("%v\n%v", err, rep)
			}
			if got := resultInts(res); !sameInts(got, want) {
				t.Errorf("result = %d rows, want %d", len(got), len(want))
			}
		})
	}
}

func TestDynamicINLJPicked(t *testing.T) {
	ctx := miniWorkload(t, 4)
	ds, _ := ctx.Catalog.Get("fact")
	for _, f := range []string{"fk_a", "fk_b", "fk_c"} {
		if _, err := storage.BuildIndex(ds, f); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Algo.EnableINLJ = true
	d := &Dynamic{Cfg: cfg}
	_, rep, err := d.Run(ctx, miniQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Compact(), "⋈i") {
		t.Errorf("INLJ not chosen with indexes present: %s", rep.Compact())
	}
	if rep.Counters.IndexLookups == 0 {
		t.Error("no index lookups metered")
	}
}

func TestDynamicTwoTableQuery(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	res, rep, err := d.Run(ctx, `SELECT fact.m FROM fact, dim_a
		WHERE fact.fk_a = dim_a.a_id AND dim_a.a_v = 3 AND dim_a.a_w = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reopts != 0 {
		t.Errorf("single-join query crossed %d loop reopts", rep.Reopts)
	}
	want := 0
	for i := 0; i < 5000; i++ {
		if (i%500)%10 == 3 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestDynamicSingleTableQuery(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	res, _, err := d.Run(ctx, `SELECT dim_a.a_id FROM dim_a WHERE dim_a.a_v = 3 AND dim_a.a_w = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Errorf("rows = %d, want 50", len(res.Rows))
	}
}

func TestDynamicWithParams(t *testing.T) {
	ctx := miniWorkload(t, 4)
	d := &Dynamic{Cfg: DefaultConfig()}
	res, rep, err := d.Run(ctx, `SELECT fact.m FROM fact, dim_a
		WHERE fact.fk_a = dim_a.a_id AND dim_a.a_v = $target AND dim_a.a_w = $target`)
	if err != nil {
		t.Fatal(err)
	}
	// Parameterized predicates are complex ⇒ push-down executed.
	if rep.PushDowns != 1 {
		t.Errorf("pushdowns = %d, want 1", rep.PushDowns)
	}
	want := 0
	for i := 0; i < 5000; i++ {
		if (i%500)%10 == 3 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestDynamicParseErrorPropagates(t *testing.T) {
	ctx := miniWorkload(t, 2)
	d := &Dynamic{Cfg: DefaultConfig()}
	if _, _, err := d.Run(ctx, "SELEKT x FROM y"); err == nil {
		t.Error("bad SQL did not error")
	}
	if _, _, err := d.Run(ctx, "SELECT x.a FROM unknown_table x"); err == nil {
		t.Error("unknown dataset did not error")
	}
}

func TestChooseAlgoRules(t *testing.T) {
	cfg := AlgoConfig{BroadcastThresholdBytes: 1000, EnableINLJ: true}
	small := algoInput{estRows: 10, estBytes: 500, filtered: true}
	smallUnfiltered := algoInput{estRows: 10, estBytes: 500}
	big := algoInput{estRows: 100000, estBytes: 5_000_000}
	bigIndexed := algoInput{estRows: 100000, estBytes: 5_000_000, indexedBase: true}

	if a, bl := ChooseAlgo(cfg, small, bigIndexed); a != plan.AlgoIndexNL || !bl {
		t.Errorf("small-filtered vs big-indexed = %v buildLeft=%v, want INLJ/left", a, bl)
	}
	if a, bl := ChooseAlgo(cfg, bigIndexed, small); a != plan.AlgoIndexNL || bl {
		t.Errorf("mirrored INLJ = %v buildLeft=%v", a, bl)
	}
	// Unfiltered broadcast side: INLJ rejected (Q8 nation case) → broadcast.
	if a, _ := ChooseAlgo(cfg, smallUnfiltered, bigIndexed); a != plan.AlgoBroadcast {
		t.Errorf("unfiltered small side = %v, want broadcast", a)
	}
	// No index: broadcast.
	if a, bl := ChooseAlgo(cfg, small, big); a != plan.AlgoBroadcast || !bl {
		t.Errorf("small vs big = %v buildLeft=%v, want broadcast/left", a, bl)
	}
	// Nothing small: hash with smaller build side.
	if a, bl := ChooseAlgo(cfg, big, algoInput{estRows: 50000, estBytes: 2_000_000}); a != plan.AlgoHash || bl {
		t.Errorf("big vs big = %v buildLeft=%v, want hash/right", a, bl)
	}
	// INLJ disabled: broadcast wins even with an index.
	cfg.EnableINLJ = false
	if a, _ := ChooseAlgo(cfg, small, bigIndexed); a != plan.AlgoBroadcast {
		t.Errorf("INLJ disabled = %v, want broadcast", a)
	}
	// Filtered-but-too-big side cannot INLJ (Q8 part case).
	cfg.EnableINLJ = true
	bigFiltered := algoInput{estRows: 100000, estBytes: 5_000_000, filtered: true}
	if a, _ := ChooseAlgo(cfg, bigFiltered, bigIndexed); a != plan.AlgoHash {
		t.Errorf("big-filtered vs big-indexed = %v, want hash", a)
	}

	// Storage-level access paths: with a real page count on the indexed
	// inner, a small unfiltered binding set still picks the index seek when
	// its probes touch fewer pages than a full scan would decode.
	pagedIndexed := algoInput{estRows: 100000, estBytes: 5_000_000, indexedBase: true, pages: 400}
	if a, bl := ChooseAlgo(cfg, smallUnfiltered, pagedIndexed); a != plan.AlgoIndexNL || !bl {
		t.Errorf("small binding set vs paged-indexed = %v buildLeft=%v, want INLJ/left", a, bl)
	}
	// A binding set at least as large as the inner's page count gains
	// nothing from seeking: broadcast/hash as before.
	wideOuter := algoInput{estRows: 400, estBytes: 500, pages: 0}
	if a, _ := ChooseAlgo(cfg, wideOuter, pagedIndexed); a != plan.AlgoBroadcast {
		t.Errorf("page-count-sized binding set = %v, want broadcast", a)
	}
	// Resident inner (pages == 0): the estimate-based rule is unchanged.
	if !indexBeatsScannedPages(10, 400) || indexBeatsScannedPages(400, 400) ||
		indexBeatsScannedPages(10, 0) || indexBeatsScannedPages(0, 400) {
		t.Error("indexBeatsScannedPages boundary cases wrong")
	}
}

func TestEstimatorTableEstimate(t *testing.T) {
	ctx := miniWorkload(t, 2)
	est := &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
	rows, bytes, err := est.TableEstimate("dim_a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 500 || bytes <= 0 {
		t.Errorf("unfiltered estimate = %d rows %d bytes", rows, bytes)
	}
	// Single histogram-estimable filter.
	f := &expr.Compare{Op: expr.CmpEq, L: &expr.Column{Qualifier: "dim_a", Name: "a_v"}, R: &expr.Literal{Val: types.Int(3)}}
	rows, _, err = est.TableEstimate("dim_a", f)
	if err != nil {
		t.Fatal(err)
	}
	if rows < 30 || rows > 70 {
		t.Errorf("filtered estimate = %d, want ~50", rows)
	}
	// Correlated pair under independence: ~5 (the misestimate the paper
	// fixes by executing predicates).
	f2 := &expr.And{Kids: []expr.Expr{f, &expr.Compare{Op: expr.CmpEq, L: &expr.Column{Qualifier: "dim_a", Name: "a_w"}, R: &expr.Literal{Val: types.Int(3)}}}}
	rows, _, err = est.TableEstimate("dim_a", f2)
	if err != nil {
		t.Fatal(err)
	}
	if rows > 20 {
		t.Errorf("correlated independence estimate = %d, want <20 (misestimate)", rows)
	}
	if _, _, err := est.TableEstimate("nope", nil); err == nil {
		t.Error("missing stats did not error")
	}
	// Pre-applied mode ignores the filter.
	est.FiltersPreApplied = true
	rows, _, _ = est.TableEstimate("dim_a", f2)
	if rows != 500 {
		t.Errorf("pre-applied estimate = %d, want 500", rows)
	}
}

// TestSurvivingPredicateOnTempKeyPricedByDefault pins the one shape in
// which a planner prices a local predicate against an intermediate's
// statistics: a numeric predicate on a column that also joins a third table.
// Reconstruction rewrites dim_a.a_id < 100 onto the stage's temp (it keeps
// every single-alias predicate, even one the stage already applied), and the
// sink collects the column because a remaining edge joins on it. The temp's
// collectors build no histogram, so the predicate is priced by the Selinger
// inequality default: a third of the 1000 observed rows. A quantile sketch
// on the temp would have priced it at about all of them, since every
// surviving value already satisfies it.
func TestSurvivingPredicateOnTempKeyPricedByDefault(t *testing.T) {
	ctx := miniWorkload(t, 2)
	rs := &runState{
		ctx:         ctx,
		est:         &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()},
		cfg:         DefaultAlgoConfig(),
		report:      &Report{},
		sql:         `SELECT fact.m FROM fact, dim_a, dim_c WHERE fact.fk_a = dim_a.a_id AND dim_a.a_id = dim_c.c_id AND dim_a.a_id < 100`,
		onlineStats: true,
	}
	defer rs.cleanup()
	if err := rs.analyze(); err != nil {
		t.Fatal(err)
	}
	if err := rs.initFragments(); err != nil {
		t.Fatal(err)
	}
	tables, err := rs.currentTables()
	if err != nil {
		t.Fatal(err)
	}
	var edge *sqlpp.JoinEdge
	for _, e := range rs.g.Joins {
		if e.LeftAlias == "fact" || e.RightAlias == "fact" {
			edge = e
		}
	}
	algo, buildLeft, err := rs.est.chooseAlgoForEdge(rs.cfg, edge, tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.executeJoinStage(edge, 0, tables, true, algo, buildLeft); err != nil {
		t.Fatal(err)
	}

	if tables, err = rs.currentTables(); err != nil {
		t.Fatal(err)
	}
	ij := tables["ij1"]
	if ij == nil || ij.Filter == nil {
		t.Fatalf("a_id < 100 did not survive onto the temp:\n%s", rs.sql)
	}
	st := rs.est.Reg.Get(ij.Dataset)
	fs := st.Fields["dim_a_a_id"]
	if st.RecordCount != 1000 || fs == nil || !fs.Numeric() || fs.Quantiles != nil {
		t.Fatalf("temp: %d rows, key collector %+v; want 1000 rows and a numeric key without a histogram", st.RecordCount, fs)
	}
	if want := int64(float64(st.RecordCount) * stats.DefaultIneqSelectivity); ij.EstRows != want || want != 333 {
		t.Errorf("temp estimate under the surviving predicate = %d, want %d", ij.EstRows, want)
	}
}

func TestEstimatorFieldDistinct(t *testing.T) {
	ctx := miniWorkload(t, 2)
	est := &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
	d := est.FieldDistinct("dim_a", "a_v", 500)
	if d < 9 || d > 11 {
		t.Errorf("distinct(a_v) = %d, want ~10", d)
	}
	// Capped at est rows.
	if got := est.FieldDistinct("dim_a", "a_id", 5); got != 5 {
		t.Errorf("capped distinct = %d", got)
	}
	// Fallbacks.
	if got := est.FieldDistinct("nope", "x", 42); got != 42 {
		t.Errorf("missing dataset fallback = %d", got)
	}
	if got := est.FieldDistinct("dim_a", "nope", 42); got != 42 {
		t.Errorf("missing field fallback = %d", got)
	}
}

func TestJoinEstimateFKShape(t *testing.T) {
	ctx := miniWorkload(t, 2)
	q, _ := sqlpp.Parse("SELECT fact.m FROM fact, dim_a WHERE fact.fk_a = dim_a.a_id")
	g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
	tables, err := BuildTables(est, g, g.NeededColumns(), false)
	if err != nil {
		t.Fatal(err)
	}
	card, err := est.JoinEstimate(g.Joins[0], tables)
	if err != nil {
		t.Fatal(err)
	}
	// PK/FK: |fact| survives ≈ 5000.
	if card < 4000 || card > 6000 {
		t.Errorf("PK/FK join estimate = %d, want ~5000", card)
	}
}

func TestPlanFullProducesValidPlan(t *testing.T) {
	ctx := miniWorkload(t, 4)
	q, _ := sqlpp.Parse(miniQuery)
	g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
	tables, err := BuildTables(est, g, g.NeededColumns(), false)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := PlanFull(est, g, tables, DefaultAlgoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tree.JoinCount() != 3 {
		t.Errorf("plan joins = %d:\n%s", tree.JoinCount(), tree.Tree())
	}
	aliases := tree.Aliases()
	if len(aliases) != 4 {
		t.Errorf("plan covers %v", aliases)
	}
	// The plan must execute correctly.
	rel, err := engine.Execute(ctx, tree)
	if err != nil {
		t.Fatalf("executing DP plan: %v\n%s", err, tree.Tree())
	}
	res, err := engine.Finish(ctx, q, rel)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultInts(res); !sameInts(got, expectedMiniRows()) {
		t.Errorf("DP plan result = %d rows, want %d", len(got), len(expectedMiniRows()))
	}
}

func TestPlanFullErrors(t *testing.T) {
	ctx := miniWorkload(t, 2)
	est := &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
	if _, err := PlanFull(est, &sqlpp.Graph{}, Tables{}, DefaultAlgoConfig()); err == nil {
		t.Error("empty graph did not error")
	}
}

func TestReportString(t *testing.T) {
	ctx := miniWorkload(t, 2)
	d := &Dynamic{Cfg: DefaultConfig()}
	_, rep, err := d.Run(ctx, miniQuery)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"dynamic", "rows=", "reopts=", "stage"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	empty := &Report{Strategy: "x"}
	if empty.Compact() != "-" {
		t.Errorf("empty Compact = %q", empty.Compact())
	}
}
