package tpcds

import (
	"sort"
	"strings"
	"testing"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/optimizer"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/types"
)

func loadCtx(t *testing.T, sf, nodes int) (*engine.Context, Sizes) {
	t.Helper()
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
	}
	sz, err := Load(ctx, sf)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, sz
}

func TestLoadSizes(t *testing.T) {
	ctx, sz := loadCtx(t, 1, 4)
	for name, want := range map[string]int{
		"store_sales": sz.StoreSales, "store_returns": sz.StoreReturns,
		"catalog_sales": sz.CatalogSales, "date_dim": sz.DateDim,
		"store": sz.Store, "item": sz.Item,
	} {
		ds, ok := ctx.Catalog.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if int(ds.RowCount()) != want {
			t.Errorf("%s rows = %d, want %d", name, ds.RowCount(), want)
		}
	}
}

func TestReturnsReferenceSales(t *testing.T) {
	ctx, _ := loadCtx(t, 1, 2)
	ss, _ := ctx.Catalog.Get("store_sales")
	sr, _ := ctx.Catalog.Get("store_returns")
	type key struct{ c, i, t int64 }
	sales := map[key]int64{} // → sold day
	ci := ss.Schema.MustIndex("ss_customer_sk")
	ii := ss.Schema.MustIndex("ss_item_sk")
	ti := ss.Schema.MustIndex("ss_ticket_number")
	di := ss.Schema.MustIndex("ss_sold_date_sk")
	for _, part := range ss.Parts {
		for _, row := range part {
			sales[key{row[ci].I(), row[ii].I(), row[ti].I()}] = row[di].I()
		}
	}
	rci := sr.Schema.MustIndex("sr_customer_sk")
	rii := sr.Schema.MustIndex("sr_item_sk")
	rti := sr.Schema.MustIndex("sr_ticket_number")
	rdi := sr.Schema.MustIndex("sr_returned_date_sk")
	for _, part := range sr.Parts {
		for _, row := range part {
			sold, ok := sales[key{row[rci].I(), row[rii].I(), row[rti].I()}]
			if !ok {
				t.Fatal("return references a non-existent sale")
			}
			if row[rdi].I() < sold {
				t.Fatal("return dated before its sale")
			}
		}
	}
}

func TestDateDimCalendar(t *testing.T) {
	ctx, sz := loadCtx(t, 1, 2)
	dd, _ := ctx.Catalog.Get("date_dim")
	yi := dd.Schema.MustIndex("d_year")
	mi := dd.Schema.MustIndex("d_moy")
	years := map[int64]int{}
	for _, part := range dd.Parts {
		for _, row := range part {
			years[row[yi].I()]++
			if row[mi].I() < 1 || row[mi].I() > 12 {
				t.Fatalf("bad moy %d", row[mi].I())
			}
		}
	}
	for y := int64(1998); y <= 2002; y++ {
		if years[y] != 360 {
			t.Errorf("year %d has %d days", y, years[y])
		}
	}
	if sz.DateDim != 1800 {
		t.Errorf("date_dim size = %d", sz.DateDim)
	}
}

func TestQueriesParseAndAnalyze(t *testing.T) {
	ctx, _ := loadCtx(t, 1, 2)
	for name, sql := range map[string]string{"Q17": Q17(), "Q50": Q50()} {
		q, err := sqlpp.Parse(sql)
		if err != nil {
			t.Fatalf("%s parse: %v", name, err)
		}
		g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
		if err != nil {
			t.Fatalf("%s analyze: %v", name, err)
		}
		switch name {
		case "Q17":
			if len(g.Aliases) != 8 || len(g.Joins) != 7 {
				t.Errorf("Q17 graph: %d aliases %d joins", len(g.Aliases), len(g.Joins))
			}
			e, ok := g.JoinFor("ss", "sr")
			if !ok || len(e.LeftFields) != 3 {
				t.Errorf("Q17 ss⋈sr composite edge: %+v", e)
			}
			e2, ok := g.JoinFor("sr", "cs")
			if !ok || len(e2.LeftFields) != 2 {
				t.Errorf("Q17 sr⋈cs composite edge: %+v", e2)
			}
		case "Q50":
			if len(g.Aliases) != 5 || len(g.Joins) != 4 {
				t.Errorf("Q50 graph: %d aliases %d joins", len(g.Aliases), len(g.Joins))
			}
			// d1's predicates are parameterized (myrand) ⇒ complex.
			found := false
			for _, p := range g.Locals["d1"] {
				if expr.IsComplex(p) {
					found = true
				}
			}
			if !found {
				t.Error("Q50 d1 has no complex predicate")
			}
		}
	}
}

func renderRows(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestQ17Q50AllStrategiesAgree(t *testing.T) {
	for qname, sql := range map[string]string{"Q17": Q17(), "Q50": Q50()} {
		t.Run(qname, func(t *testing.T) {
			refCtx, _ := loadCtx(t, 2, 4)
			cb, err := optimizer.New("cost-based", core.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			refRes, _, err := cb.Run(refCtx, sql)
			if err != nil {
				t.Fatal(err)
			}
			want := renderRows(refRes)
			if len(want) == 0 {
				t.Fatalf("%s returns no rows — workload too sparse", qname)
			}
			for _, name := range optimizer.Names {
				if name == "cost-based" {
					continue // the reference
				}
				s, err := optimizer.New(name, core.DefaultConfig(), nil)
				if err != nil {
					t.Fatal(err)
				}
				ctx, _ := loadCtx(t, 2, 4)
				res, rep, err := s.Run(ctx, sql)
				if err != nil {
					t.Fatalf("%s/%s: %v\n%v", qname, s.Name(), err, rep)
				}
				got := renderRows(res)
				if len(got) != len(want) {
					t.Errorf("%s/%s: %d rows, want %d", qname, s.Name(), len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s/%s: row %d differs: %s vs %s", qname, s.Name(), i, got[i], want[i])
						break
					}
				}
			}
		})
	}
}

func TestQ17DynamicPlanShape(t *testing.T) {
	ctx, _ := loadCtx(t, 10, 4)
	_, rep, err := (&core.Dynamic{Cfg: core.DefaultConfig()}).Run(ctx, Q17())
	if err != nil {
		t.Fatal(err)
	}
	// §7.2.1's essential property: dimension tables prune the fact tables
	// before any fact-fact join — the first scheduled stage never joins two
	// raw fact tables. (Whether the pruned branches assemble into a
	// literally bushy tree depends on the cardinality constants; see
	// EXPERIMENTS.md.)
	if rep.Tree == nil {
		t.Fatal("no plan tree")
	}
	assertNoRawFactFactJoin(t, rep.Tree)
	if !strings.Contains(rep.Compact(), "⋈b") {
		t.Errorf("Q17 dynamic plan has no broadcasts: %s", rep.Compact())
	}
	// Three multi-predicate date dims get pushed down.
	if rep.PushDowns != 3 {
		t.Errorf("Q17 pushdowns = %d, want 3", rep.PushDowns)
	}
}

// assertNoRawFactFactJoin fails if any join node has two unfiltered fact
// leaves as inputs (the worst-order shape dynamic optimization exists to
// avoid).
func assertNoRawFactFactJoin(t *testing.T, n *plan.Node) {
	t.Helper()
	if n.Leaf != nil {
		return
	}
	facts := map[string]bool{"store_sales": true, "store_returns": true, "catalog_sales": true}
	l, r := n.Join.Left, n.Join.Right
	rawFact := func(x *plan.Node) bool {
		return x.Leaf != nil && facts[x.Leaf.Dataset] && x.Leaf.Filter == nil
	}
	if rawFact(l) && rawFact(r) {
		t.Errorf("join of two raw fact tables: %s", n.Compact())
	}
	assertNoRawFactFactJoin(t, l)
	assertNoRawFactFactJoin(t, r)
}

func TestQ50WithINLJ(t *testing.T) {
	ctx, _ := loadCtx(t, 2, 4)
	if err := BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Algo.EnableINLJ = true
	d := &core.Dynamic{Cfg: cfg}
	res, rep, err := d.Run(ctx, Q50())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("Q50 INLJ run returned no rows")
	}
	// §7.2.3: dynamic picks INLJ for d1'⋈store_returns.
	if !strings.Contains(rep.Compact(), "⋈i") {
		t.Errorf("Q50 with indexes did not use INLJ: %s", rep.Compact())
	}
	if rep.Counters.IndexLookups == 0 {
		t.Error("no index lookups metered")
	}
}

func TestBuildIndexesErrors(t *testing.T) {
	empty := &engine.Context{Cluster: cluster.New(1), Catalog: catalog.New()}
	if err := BuildIndexes(empty); err == nil {
		t.Error("BuildIndexes without load did not error")
	}
}

func TestQ17LimitRespected(t *testing.T) {
	ctx, _ := loadCtx(t, 2, 4)
	res, _, err := (&core.Dynamic{Cfg: core.DefaultConfig()}).Run(ctx, Q17())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 100 {
		t.Errorf("Q17 returned %d rows, LIMIT 100", len(res.Rows))
	}
	// Ordered by item id (first column ascending).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Compare(res.Rows[i][0]) > 0 {
			t.Error("Q17 result not ordered")
			break
		}
	}
	_ = types.Null() // keep types import for the helpers above
}
