package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
	"dynopt/internal/workload"
)

// randomStar builds a randomized star schema: one fact table and 2–4
// dimensions with varying sizes, fan-outs, and filters, then checks that
// the dynamic optimizer's result matches a naive single-threaded reference
// evaluation. This is the end-to-end correctness property: whatever plan
// Algorithm 1 chooses — push-downs, stage order, join algorithms — the
// answer must be the reference answer.
func randomStarCase(seed uint64) (ctx *engine.Context, sql string, want []int64, err error) {
	rng := workload.NewRNG(seed)
	nodes := 2 + rng.Intn(4)
	ctx = &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    expr.NewRegistry(),
		Params:  map[string]types.Value{},
	}
	nDims := 2 + rng.Intn(3)
	dimSizes := make([]int, nDims)
	filterMod := make([]int, nDims)
	filterVal := make([]int, nDims)
	for d := 0; d < nDims; d++ {
		dimSizes[d] = 20 + rng.Intn(200)
		filterMod[d] = 0
		if rng.Intn(2) == 0 {
			filterMod[d] = 2 + rng.Intn(6)
			filterVal[d] = rng.Intn(filterMod[d])
		}
	}
	// Dimensions.
	for d := 0; d < nDims; d++ {
		sch := types.NewSchema(
			types.Field{Name: "id", Kind: types.KindInt},
			types.Field{Name: "v", Kind: types.KindInt},
		)
		rows := make([]types.Tuple, dimSizes[d])
		for i := range rows {
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 10))}
		}
		name := fmt.Sprintf("dim%d", d)
		ds, st, berr := storage.Build(name, sch, []string{"id"}, rows, nodes)
		if berr != nil {
			return nil, "", nil, berr
		}
		if berr := ctx.Catalog.Register(ds, st); berr != nil {
			return nil, "", nil, berr
		}
	}
	// Fact.
	factN := 500 + rng.Intn(3000)
	fields := []types.Field{{Name: "id", Kind: types.KindInt}}
	for d := 0; d < nDims; d++ {
		fields = append(fields, types.Field{Name: fmt.Sprintf("fk%d", d), Kind: types.KindInt})
	}
	factRows := make([]types.Tuple, factN)
	fks := make([][]int, factN)
	for i := range factRows {
		row := types.Tuple{types.Int(int64(i))}
		fk := make([]int, nDims)
		for d := 0; d < nDims; d++ {
			fk[d] = rng.Intn(dimSizes[d])
			row = append(row, types.Int(int64(fk[d])))
		}
		factRows[i] = row
		fks[i] = fk
	}
	ds, st, berr := storage.Build("fact", &types.Schema{Fields: fields}, []string{"id"}, factRows, nodes)
	if berr != nil {
		return nil, "", nil, berr
	}
	if berr := ctx.Catalog.Register(ds, st); berr != nil {
		return nil, "", nil, berr
	}

	// Query text.
	sql = "SELECT fact.id FROM fact"
	for d := 0; d < nDims; d++ {
		sql += fmt.Sprintf(", dim%d", d)
	}
	sql += " WHERE "
	for d := 0; d < nDims; d++ {
		if d > 0 {
			sql += " AND "
		}
		sql += fmt.Sprintf("fact.fk%d = dim%d.id", d, d)
	}
	for d := 0; d < nDims; d++ {
		if filterMod[d] > 0 {
			// Two redundant (perfectly correlated) predicates to trigger
			// push-down half the time.
			sql += fmt.Sprintf(" AND dim%d.v >= 0 AND dim%d.v = %d", d, d, filterVal[d]%10)
		}
	}

	// Reference evaluation.
	for i := range fks {
		ok := true
		for d := 0; d < nDims; d++ {
			if filterMod[d] > 0 && fks[i][d]%10 != filterVal[d]%10 {
				ok = false
				break
			}
		}
		if ok {
			want = append(want, int64(i))
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	return ctx, sql, want, nil
}

func TestDynamicMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ctx, sql, want, err := randomStarCase(seed)
		if err != nil {
			t.Logf("seed %d: build error %v", seed, err)
			return false
		}
		res, rep, err := (&Dynamic{Cfg: DefaultConfig()}).Run(ctx, sql)
		if err != nil {
			t.Logf("seed %d: %v\n%s\n%v", seed, err, sql, rep)
			return false
		}
		got := make([]int64, 0, len(res.Rows))
		for _, r := range res.Rows {
			got = append(got, r[0].I())
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != len(want) {
			t.Logf("seed %d: %d rows, want %d\n%s", seed, len(got), len(want), sql)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: row %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The same property for the full-plan DP path (cost-based execution).
func TestPlanFullMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ctx, sql, want, err := randomStarCase(seed)
		if err != nil {
			return false
		}
		cfg := Config{Algo: DefaultAlgoConfig(), PushDown: true, ReoptLoop: false}
		res, rep, err := (&Dynamic{Cfg: cfg, Label: "pushdown-static"}).Run(ctx, sql)
		if err != nil {
			t.Logf("seed %d: %v\n%v", seed, err, rep)
			return false
		}
		if len(res.Rows) != len(want) {
			t.Logf("seed %d: %d rows, want %d", seed, len(res.Rows), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
