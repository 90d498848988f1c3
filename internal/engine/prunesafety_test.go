package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// TestPruneSafetyProperty is the zone-map soundness property: over
// randomized page contents and randomized pushed-down filters, a page that
// pagePruned skips (judging only the directory stats EncodePage computed)
// must contain no row the full filter would pass. Pruning that keeps a
// useless page costs a read; pruning that skips a useful one loses rows —
// the latter must never happen, for any mix of ranges, equality points,
// NULLs, or all-NULL columns.
func TestPruneSafetyProperty(t *testing.T) {
	sch := &types.Schema{Fields: []types.Field{
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindFloat},
		{Name: "c", Kind: types.KindString},
	}}
	env := &expr.Env{Schema: sch}
	rng := rand.New(rand.NewSource(20260808))

	randRow := func() types.Tuple {
		row := types.Tuple{
			types.Int(int64(rng.Intn(40) - 20)),
			types.Float(float64(rng.Intn(40)-20) / 2),
			types.Str(string(rune('a' + rng.Intn(6)))),
		}
		for i := range row {
			if rng.Intn(8) == 0 {
				row[i] = types.Null()
			}
		}
		return row
	}
	randConst := func(col int) expr.Expr {
		switch col {
		case 0:
			return &expr.Literal{Val: types.Int(int64(rng.Intn(44) - 22))}
		case 1:
			return &expr.Literal{Val: types.Float(float64(rng.Intn(44)-22) / 2)}
		default:
			return &expr.Literal{Val: types.Str(string(rune('a' + rng.Intn(8))))}
		}
	}
	names := []string{"a", "b", "c"}
	randConjunct := func() expr.Expr {
		col := rng.Intn(3)
		ref := &expr.Column{Name: names[col]}
		if rng.Intn(4) == 0 {
			return &expr.Between{X: ref, Lo: randConst(col), Hi: randConst(col)}
		}
		ops := []expr.CmpOp{expr.CmpEq, expr.CmpNe, expr.CmpLt, expr.CmpLe, expr.CmpGt, expr.CmpGe}
		cmp := &expr.Compare{Op: ops[rng.Intn(len(ops))], L: ref, R: randConst(col)}
		if rng.Intn(2) == 0 {
			// Mirrored const-op-column form: extraction must flip the bound.
			cmp.L, cmp.R = cmp.R, cmp.L
		}
		return cmp
	}

	for iter := 0; iter < 2000; iter++ {
		nrows := rng.Intn(30) + 1
		rows := make([]types.Tuple, nrows)
		allNull := rng.Intn(10) == 0 // occasionally force an all-NULL column
		nullCol := rng.Intn(3)
		for i := range rows {
			rows[i] = randRow()
			if allNull {
				rows[i][nullCol] = types.Null()
			}
		}
		_, st := types.EncodePage(nil, sch, rows)
		pi := &storage.PageInfo{Rows: int32(nrows), Cols: st}

		var filter expr.Expr = randConjunct()
		if n := rng.Intn(3); n > 0 {
			kids := []expr.Expr{filter}
			for k := 0; k < n; k++ {
				kids = append(kids, randConjunct())
			}
			filter = &expr.And{Kids: kids}
		}
		zones := expr.ZoneRanges(filter, env)
		if len(zones) == 0 || !pagePruned(zones, pi) {
			continue
		}
		pred, err := expr.Compile(filter, env)
		if err != nil {
			t.Fatalf("iter %d: compile: %v", iter, err)
		}
		for _, row := range rows {
			v, err := pred(row)
			if err != nil {
				t.Fatalf("iter %d: eval: %v", iter, err)
			}
			if v.IsTrue() {
				t.Fatalf("iter %d: pruned page holds a passing row %v under filter %s (stats %s)",
					iter, row, filter.SQL(), describeStats(st))
			}
		}
	}
}

func describeStats(st []types.PageColStats) string {
	out := ""
	for i, cs := range st {
		if i > 0 {
			out += "; "
		}
		if cs.HasMinMax {
			out += fmt.Sprintf("col%d [%v, %v] nulls=%d", i, cs.Min, cs.Max, cs.Nulls)
		} else {
			out += fmt.Sprintf("col%d all-null(%d)", i, cs.Nulls)
		}
	}
	return out
}
