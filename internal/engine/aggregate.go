package engine

import (
	"encoding/binary"
	"fmt"
	"strings"

	"dynopt/internal/expr"
	"dynopt/internal/sqlpp"
	"dynopt/internal/types"
)

// aggKind enumerates the supported aggregate functions.
type aggKind int

const (
	aggNone aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggOf recognizes an aggregate call in a SELECT item: one of
// count/sum/avg/min/max over a single argument expression.
func aggOf(e expr.Expr) (aggKind, expr.Expr) {
	c, ok := e.(*expr.Call)
	if !ok || len(c.Args) != 1 {
		return aggNone, nil
	}
	switch strings.ToLower(c.Name) {
	case "count":
		return aggCount, c.Args[0]
	case "sum":
		return aggSum, c.Args[0]
	case "avg":
		return aggAvg, c.Args[0]
	case "min":
		return aggMin, c.Args[0]
	case "max":
		return aggMax, c.Args[0]
	default:
		return aggNone, nil
	}
}

// hasAggregates reports whether any SELECT item is an aggregate call.
func hasAggregates(items []sqlpp.SelectItem) bool {
	for _, s := range items {
		if k, _ := aggOf(s.Expr); k != aggNone {
			return true
		}
	}
	return false
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count int64
	sum   float64
	min   types.Value
	max   types.Value
	any   bool
}

func (a *aggState) observe(v types.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	if f, ok := v.AsFloat(); ok {
		a.sum += f
	}
	if !a.any {
		a.min, a.max = v, v
		a.any = true
		return
	}
	if v.Compare(a.min) < 0 {
		a.min = v
	}
	if v.Compare(a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(kind aggKind) types.Value {
	switch kind {
	case aggCount:
		return types.Int(a.count)
	case aggSum:
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum)
	case aggAvg:
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum / float64(a.count))
	case aggMin:
		if !a.any {
			return types.Null()
		}
		return a.min
	case aggMax:
		if !a.any {
			return types.Null()
		}
		return a.max
	default:
		return types.Null()
	}
}

// finishAggregate evaluates a SELECT list containing aggregate calls: the
// relation's partitions stream in order through the grouping table (one
// global group when GROUP BY is absent — no gathered coordinator copy is
// built), aggregates accumulate per group, and non-aggregate items are
// evaluated on the group's first row (they must be functionally dependent
// on the grouping keys, which the evaluation queries guarantee). ORDER BY
// and LIMIT then apply to the grouped output, with order keys likewise
// taken from the group's first row.
func finishAggregate(ctx *Context, q *sqlpp.Query, rel *Relation) (*Result, error) {
	env := ctx.Env(rel.Schema)
	res := &Result{}
	type sel struct {
		kind aggKind
		arg  expr.Expr // aggregate argument (kind != aggNone)
		raw  expr.Expr // plain expression (kind == aggNone)
	}
	sels := make([]sel, len(q.Select))
	for i, s := range q.Select {
		kind, arg := aggOf(s.Expr)
		sels[i] = sel{kind: kind, arg: arg, raw: s.Expr}
		name := s.Alias
		if name == "" {
			name = s.Expr.SQL()
		}
		res.Columns = append(res.Columns, name)
	}

	type group struct {
		first types.Tuple
		aggs  []aggState
	}
	groups := map[string]*group{}
	var order []string
	// Hash-aggregate state grows one entry per distinct group; meter that
	// growth against the query's memory grant so unbounded GROUP BYs are
	// visible to the governor (released when aggregation completes — the
	// grouped output replaces the table).
	const aggStateBytes = 48 // approximate per-aggregate accumulator footprint
	var groupBytes int64
	defer func() { ctx.Grant.Release(groupBytes) }()
	var key []byte // reused row to row
	for _, part := range rel.Parts {
		for _, row := range part {
			var err error
			if key, err = groupKey(key[:0], q.GroupBy, row, env); err != nil {
				return nil, err
			}
			grp, ok := groups[string(key)] // no copy: only a new group keeps its key
			if !ok {
				k := string(key)
				grp = &group{first: row, aggs: make([]aggState, len(sels))}
				groups[k] = grp
				order = append(order, k)
				//dynopt:size-ok first row of a new group: the group table has no cached size, and only group-founding rows pay the walk
				sz := int64(row.EncodedSize()) + int64(len(k)) + int64(len(sels))*aggStateBytes
				groupBytes += sz
				ctx.Grant.Reserve(sz)
			}
			for i, s := range sels {
				if s.kind == aggNone {
					continue
				}
				v, err := s.arg.Eval(row, env)
				if err != nil {
					return nil, err
				}
				grp.aggs[i].observe(v)
			}
		}
	}

	type outRow struct {
		projected types.Tuple
		orderKeys types.Tuple
	}
	var out []outRow
	for _, k := range order {
		grp := groups[k]
		projected := make(types.Tuple, len(sels))
		for i, s := range sels {
			if s.kind != aggNone {
				projected[i] = grp.aggs[i].result(s.kind)
				continue
			}
			v, err := s.raw.Eval(grp.first, env)
			if err != nil {
				return nil, err
			}
			projected[i] = v
		}
		o := outRow{projected: projected}
		if len(q.OrderBy) > 0 {
			o.orderKeys = make(types.Tuple, len(q.OrderBy))
			for i, ob := range q.OrderBy {
				v, err := ob.Expr.Eval(grp.first, env)
				if err != nil {
					return nil, err
				}
				o.orderKeys[i] = v
			}
		}
		out = append(out, o)
	}
	if len(q.OrderBy) > 0 {
		less := func(a, b outRow) bool {
			for i, ob := range q.OrderBy {
				c := a.orderKeys[i].Compare(b.orderKeys[i])
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		}
		// Stable insertion sort: group counts at the coordinator are small.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && less(out[j], out[j-1]); j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	res.Rows = make([]types.Tuple, len(out))
	for i, o := range out {
		res.Rows[i] = o.projected
	}
	return res, nil
}

// groupKey evaluates the GROUP BY expressions on row and encodes the values
// as one map key: each value's String form behind its length, so no value's
// text can run into its neighbour's — ('a'|'b', 'c') and ('a', 'b'|'c') are
// two groups. String quotes strings and prints an integral float as the int,
// so NULL stays apart from 'NULL' and 1.0 groups with 1, as Value.Compare has
// them. The key is appended to buf, which callers reuse row to row.
func groupKey(buf []byte, groupBy []expr.Expr, row types.Tuple, env *expr.Env) ([]byte, error) {
	for _, g := range groupBy {
		v, err := g.Eval(row, env)
		if err != nil {
			return nil, err
		}
		s := v.String()
		buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	return buf, nil
}

// validateAggregateQuery rejects aggregates outside the SELECT list.
func validateAggregateQuery(q *sqlpp.Query) error {
	check := func(e expr.Expr, clause string) error {
		var err error
		e.Walk(func(n expr.Expr) {
			if k, _ := aggOf(n); k != aggNone && err == nil {
				err = fmt.Errorf("engine: aggregate in %s is not supported", clause)
			}
		})
		return err
	}
	for _, w := range q.Where {
		if err := check(w, "WHERE"); err != nil {
			return err
		}
	}
	for _, g := range q.GroupBy {
		if err := check(g, "GROUP BY"); err != nil {
			return err
		}
	}
	return nil
}
