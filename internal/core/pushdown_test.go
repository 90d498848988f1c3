package core

import (
	"testing"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// TestPushDownStatsKeepTheirColumns: a push-down's temp keeps each
// column's statistics under that column's name even when one column is
// named like another's flattened form. Scanned under alias t, the columns
// k and t_k flatten to t_k and t_t_k; renamed in place while ranging over
// the map, k could end up with t_k's sketch and t_k with none, depending on
// map order — so the push-down runs many times.
func TestPushDownStatsKeepTheirColumns(t *testing.T) {
	const nodes = 4
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
	}
	intF := func(n string) types.Field { return types.Field{Name: n, Kind: types.KindInt} }
	mk := func(name string, fields []types.Field, n int, row func(i int) types.Tuple) {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = row(i)
		}
		ds, st, err := storage.Build(name, &types.Schema{Fields: fields}, []string{fields[0].Name}, rows, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Catalog.Register(ds, st); err != nil {
			t.Fatal(err)
		}
	}
	// k has 1000 distinct values, t_k two.
	mk("tt", []types.Field{intF("id"), intF("k"), intF("t_k")}, 4000, func(i int) types.Tuple {
		return types.Tuple{types.Int(int64(i)), types.Int(int64(i % 1000)), types.Int(int64(i % 2))}
	})
	for _, d := range []string{"da", "db", "dc"} {
		mk(d, []types.Field{intF(d + "_id")}, 1000, func(i int) types.Tuple {
			return types.Tuple{types.Int(int64(i))}
		})
	}
	const sql = `SELECT t.id FROM tt t, da, db, dc
WHERE t.k = da.da_id AND t.t_k = db.db_id AND t.id = dc.dc_id
  AND t.id >= 10 AND t.id < 3990`

	for run := range 100 {
		rs := &runState{
			ctx:         ctx,
			est:         &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()},
			cfg:         DefaultAlgoConfig(),
			report:      &Report{},
			sql:         sql,
			onlineStats: true,
		}
		err := rs.analyze()
		if err == nil {
			err = rs.initFragments()
		}
		if err == nil {
			err = rs.executePushDown("t")
		}
		if err != nil {
			rs.cleanup()
			t.Fatal(err)
		}
		distinct := map[string]int64{}
		for f, fs := range rs.est.Reg.Get(rs.tempNames[0]).Fields {
			distinct[f] = fs.DistinctCount()
		}
		rs.cleanup()
		// HyperLogLog counts 1000 distinct keys to within a few percent, and
		// two exactly.
		if len(distinct) != 3 || distinct["k"] < 900 || distinct["k"] > 1100 || distinct["t_k"] != 2 {
			t.Fatalf("run %d: push-down distinct counts %v, want id, k ≈ 1000 and t_k = 2", run, distinct)
		}
	}
}
