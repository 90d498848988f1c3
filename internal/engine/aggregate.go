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

// selItem is one compiled SELECT item: an aggregate over its compiled
// argument, or (kind aggNone) the compiled item itself.
type selItem struct {
	kind aggKind
	eval expr.Compiled
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

// ordered sorts finished rows by their ORDER BY keys; a row moves with its
// keys.
type ordered struct {
	rows, keys []types.Tuple
	by         []sqlpp.OrderItem
}

func (o ordered) Len() int { return len(o.rows) }

func (o ordered) Swap(a, b int) {
	o.rows[a], o.rows[b] = o.rows[b], o.rows[a]
	o.keys[a], o.keys[b] = o.keys[b], o.keys[a]
}

func (o ordered) Less(a, b int) bool {
	for i, by := range o.by {
		if c := o.keys[a][i].Compare(o.keys[b][i]); c != 0 {
			return (c < 0) != by.Desc
		}
	}
	return false
}

// groupKey evaluates the GROUP BY keys on row and encodes the values as one
// map key: each value's String form behind its length, so no value's text
// can run into its neighbour's — ('a'|'b', 'c') and ('a', 'b'|'c') are two
// groups. String quotes strings and prints an integral float as the int, and
// a float zero is written as 0, so NULL stays apart from 'NULL' while 1.0
// groups with 1 and -0.0 with 0.0, as Value.Compare has them. The key is
// appended to buf, which callers reuse row to row.
func groupKey(buf []byte, groupBy []expr.Compiled, row types.Tuple) ([]byte, error) {
	for _, g := range groupBy {
		v, err := g(row)
		if err != nil {
			return nil, err
		}
		if v.K == types.KindFloat && v.F() == 0 {
			v = types.Float(0)
		}
		s := v.String()
		buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	return buf, nil
}

// ValidateQuery is the one clause validator: it rejects an aggregate
// anywhere but as a whole SELECT item — in WHERE, GROUP BY or ORDER BY,
// inside an aggregate's argument, or inside a larger SELECT expression.
// core.Analyze runs it on every statement before anything executes.
func ValidateQuery(q *sqlpp.Query) error {
	// One walker, made once for every clause: this runs on each analysis,
	// reconstructed queries included.
	var found bool
	mark := func(n expr.Expr) {
		if k, _ := aggOf(n); k != aggNone {
			found = true
		}
	}
	check := func(e expr.Expr, where string) error {
		found = false
		if e.Walk(mark); found {
			return fmt.Errorf("engine: aggregate %s is not supported", where)
		}
		return nil
	}
	for _, w := range q.Where {
		if err := check(w, "in WHERE"); err != nil {
			return err
		}
	}
	for _, g := range q.GroupBy {
		if err := check(g, "in GROUP BY"); err != nil {
			return err
		}
	}
	for _, o := range q.OrderBy {
		if err := check(o.Expr, "in ORDER BY"); err != nil {
			return err
		}
	}
	for _, s := range q.Select {
		inner := s.Expr
		if k, arg := aggOf(s.Expr); k != aggNone {
			inner = arg
		}
		if err := check(inner, "inside a SELECT expression"); err != nil {
			return err
		}
	}
	return nil
}
