package core

import (
	"fmt"
	"testing"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// String join keys exercise the statistics fallback paths: HLL sketches
// cover strings but GK histograms do not, so table estimates for filters on
// string columns fall back to Selinger defaults while join estimates still
// get real distinct counts.
func TestDynamicWithStringJoinKeys(t *testing.T) {
	const nodes = 4
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
	}
	reg := func(name string, sch *types.Schema, pk []string, rows []types.Tuple) {
		ds, st, err := storage.Build(name, sch, pk, rows, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Catalog.Register(ds, st); err != nil {
			t.Fatal(err)
		}
	}
	countries := []string{"DE", "FR", "IT", "ES", "NL", "PT", "BE", "AT"}
	dimRows := make([]types.Tuple, len(countries))
	for i, c := range countries {
		dimRows[i] = types.Tuple{types.Str(c), types.Int(int64(i % 2))}
	}
	reg("country", types.NewSchema(
		types.Field{Name: "code", Kind: types.KindString},
		types.Field{Name: "zone", Kind: types.KindInt},
	), []string{"code"}, dimRows)

	region := []types.Tuple{{types.Int(0), types.Str("north")}, {types.Int(1), types.Str("south")}}
	reg("zone", types.NewSchema(
		types.Field{Name: "z_id", Kind: types.KindInt},
		types.Field{Name: "z_name", Kind: types.KindString},
	), []string{"z_id"}, region)

	factRows := make([]types.Tuple, 4000)
	for i := range factRows {
		factRows[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str(countries[i%len(countries)]),
			types.Int(int64(i % 100)),
		}
	}
	reg("shipments", types.NewSchema(
		types.Field{Name: "sh_id", Kind: types.KindInt},
		types.Field{Name: "sh_country", Kind: types.KindString},
		types.Field{Name: "sh_weight", Kind: types.KindInt},
	), []string{"sh_id"}, factRows)

	sql := `SELECT s.sh_id FROM shipments s, country c, zone z
		WHERE s.sh_country = c.code AND c.zone = z.z_id
		  AND z.z_name = 'north' AND c.code != 'DE' AND c.code != 'XX'`
	res, rep, err := (&Dynamic{Cfg: DefaultConfig()}).Run(ctx, sql)
	if err != nil {
		t.Fatalf("%v\n%v", err, rep)
	}
	// zone north = zone 0 = countries at even index {DE, IT, NL, BE}; DE
	// excluded ⇒ 3 of 8 countries ⇒ 1500 shipments.
	if len(res.Rows) != 1500 {
		t.Errorf("rows = %d, want 1500", len(res.Rows))
	}
	// The two != predicates on c triggered a push-down.
	if rep.PushDowns != 1 {
		t.Errorf("pushdowns = %d, want 1", rep.PushDowns)
	}
}

func TestFinishOrderByWithNulls(t *testing.T) {
	const nodes = 2
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
	}
	rows := []types.Tuple{
		{types.Int(1), types.Str("b")},
		{types.Int(2), types.Null()},
		{types.Int(3), types.Str("a")},
	}
	ds, st, err := storage.Build("t", types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "v", Kind: types.KindString},
	), []string{"id"}, rows, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Catalog.Register(ds, st); err != nil {
		t.Fatal(err)
	}
	res, rep, err := (&Dynamic{Cfg: DefaultConfig()}).Run(ctx, "SELECT t.id, t.v FROM t ORDER BY t.v")
	if err != nil {
		t.Fatalf("%v\n%v", err, rep)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// NULL sorts first, then 'a', then 'b'.
	want := []int64{2, 3, 1}
	for i, w := range want {
		if res.Rows[i][0].I() != w {
			t.Fatalf("order = %v, want ids %v", res.Rows, want)
		}
	}
	_ = fmt.Sprint() // keep fmt import if unused paths change
}
