package tpch

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

func TestLoadSizesAndStats(t *testing.T) {
	ctx, sz := loadCtx(t, 1, 4)
	for name, want := range map[string]int{
		"lineitem": sz.Lineitem, "orders": sz.Orders, "partsupp": sz.Partsupp,
		"part": sz.Part, "customer": sz.Customer, "supplier": sz.Supplier,
		"nation": sz.Nation, "region": sz.Region,
	} {
		ds, ok := ctx.Catalog.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if int(ds.RowCount()) != want {
			t.Errorf("%s rows = %d, want %d", name, ds.RowCount(), want)
		}
		st := ctx.Catalog.Stats().Get(name)
		if st == nil || int(st.RecordCount) != want {
			t.Errorf("%s stats missing or wrong", name)
		}
	}
}

func TestSizesScale(t *testing.T) {
	s1, s5 := SizesFor(1), SizesFor(5)
	if s5.Lineitem != 5*s1.Lineitem || s5.Orders != 5*s1.Orders {
		t.Errorf("scaling wrong: %+v vs %+v", s1, s5)
	}
	if SizesFor(0).Lineitem != SizesFor(1).Lineitem {
		t.Error("sf<1 not clamped")
	}
	if s1.Nation != 25 || s1.Region != 5 {
		t.Error("fixed tables scaled")
	}
}

func TestOrdersCorrelation(t *testing.T) {
	ctx, _ := loadCtx(t, 2, 2)
	ds, _ := ctx.Catalog.Get("orders")
	di := ds.Schema.MustIndex("o_orderdate")
	si := ds.Schema.MustIndex("o_orderstatus")
	var inRange, f, both, total int
	for _, part := range ds.Parts {
		for _, row := range part {
			total++
			d := row[di].S
			inR := d >= "1995-01-01" && d <= "1996-12-31"
			isF := row[si].S == "F"
			if inR {
				inRange++
			}
			if isF {
				f++
			}
			if inR && isF {
				both++
			}
		}
	}
	// Perfect correlation: status F ⇔ year in {1995,1996}.
	if both != inRange || both != f {
		t.Errorf("correlation broken: inRange=%d f=%d both=%d", inRange, f, both)
	}
	// Roughly 2/7 of all orders.
	frac := float64(both) / float64(total)
	if frac < 0.2 || frac > 0.37 {
		t.Errorf("correlated fraction = %v, want ~2/7", frac)
	}
}

func TestDateString(t *testing.T) {
	if got := dateString(0); got != "1992-01-01" {
		t.Errorf("day 0 = %s", got)
	}
	if got := dateString(360*3 + 35); got != "1995-02-06" {
		t.Errorf("mid date = %s", got)
	}
	if !strings.HasPrefix(dateString(daysTotal-1), "1998-12") {
		t.Errorf("last day = %s", dateString(daysTotal-1))
	}
}

func TestQueriesParseAndAnalyze(t *testing.T) {
	ctx, _ := loadCtx(t, 1, 2)
	for name, sql := range map[string]string{"Q8": Q8(), "Q9": Q9()} {
		q, err := sqlpp.Parse(sql)
		if err != nil {
			t.Fatalf("%s parse: %v", name, err)
		}
		g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
		if err != nil {
			t.Fatalf("%s analyze: %v", name, err)
		}
		switch name {
		case "Q8":
			if len(g.Aliases) != 8 || len(g.Joins) != 7 {
				t.Errorf("Q8 graph: %d aliases %d joins", len(g.Aliases), len(g.Joins))
			}
		case "Q9":
			if len(g.Aliases) != 6 || len(g.Joins) != 5 {
				t.Errorf("Q9 graph: %d aliases %d joins", len(g.Aliases), len(g.Joins))
			}
			// The lineitem⋈partsupp edge must be composite.
			e, ok := g.JoinFor("l", "ps")
			if !ok || len(e.LeftFields) != 2 {
				t.Errorf("Q9 l⋈ps edge: %+v", e)
			}
		}
	}
}

func TestBuildIndexes(t *testing.T) {
	ctx, _ := loadCtx(t, 1, 2)
	if err := BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	ds, _ := ctx.Catalog.Get("lineitem")
	if !ds.HasIndex("l_partkey") || !ds.HasIndex("l_suppkey") {
		t.Error("lineitem indexes missing")
	}
	empty := &engine.Context{Cluster: cluster.New(1), Catalog: catalog.New()}
	if err := BuildIndexes(empty); err == nil {
		t.Error("BuildIndexes without load did not error")
	}
}

func refRows(t *testing.T, ctx *engine.Context, sql string) []string {
	t.Helper()
	cb, err := optimizer.New("cost-based", core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := cb.Run(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	return renderRows(res)
}

func renderRows(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// Q8 and Q9 must produce identical results under every strategy — the
// workload-level equivalence check.
func TestQ8Q9AllStrategiesAgree(t *testing.T) {
	for qname, sql := range map[string]string{"Q8": Q8(), "Q9": Q9()} {
		t.Run(qname, func(t *testing.T) {
			refCtx, _ := loadCtx(t, 1, 4)
			want := refRows(t, refCtx, sql)
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
				ctx, _ := loadCtx(t, 1, 4)
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
						t.Errorf("%s/%s: row %d differs", qname, s.Name(), i)
						break
					}
				}
			}
		})
	}
}

func TestQ9WithINLJ(t *testing.T) {
	ctx, _ := loadCtx(t, 1, 4)
	if err := BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Algo.EnableINLJ = true
	d := &core.Dynamic{Cfg: cfg}
	res, rep, err := d.Run(ctx, Q9())
	if err != nil {
		t.Fatal(err)
	}
	// Same result as the hash/broadcast-only run.
	ctx2, _ := loadCtx(t, 1, 4)
	res2, _, err := (&core.Dynamic{Cfg: core.DefaultConfig()}).Run(ctx2, Q9())
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderRows(res), renderRows(res2)
	if len(a) != len(b) {
		t.Fatalf("INLJ rows %d != default rows %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	// §7.2.4: dynamic picks INLJ for lineitem⋈part at small scale.
	if !strings.Contains(rep.Compact(), "⋈i") {
		t.Logf("plan: %s", rep.Compact())
		t.Error("Q9 with indexes did not use INLJ")
	}
}
