package engine

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"dynopt/internal/expr"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/types"
)

// Execute runs a physical plan tree to a partitioned relation. Static
// strategies execute their whole tree through this entry point in one
// pipelined job; the dynamic optimizer instead executes one stage at a time
// and materializes between stages. Interior projections (Join.Keep) are a
// ProjectColumns pass over the relation the join landed. A join node is
// JoinInto, collected.
func Execute(ctx *Context, n *plan.Node) (*Relation, error) {
	if n.Leaf != nil {
		return ScanByName(ctx, n.Leaf.Dataset, n.Leaf.Alias, n.Leaf.Filter, n.Leaf.Project)
	}
	j := n.Join
	rel, err := collectJoin(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
		return JoinInto(ctx, j, mk)
	})
	if err != nil {
		return nil, err
	}
	if j.Keep != nil {
		return ProjectColumns(rel, j.Keep)
	}
	return rel, nil
}

// sourceForNode turns a plan child into a chunk source: leaves stream
// straight from storage (fused decode), interior results window out of
// their materialized relation.
func sourceForNode(ctx *Context, n *plan.Node) (Source, error) {
	if n.Leaf != nil {
		ds, ok := ctx.Catalog.Get(n.Leaf.Dataset)
		if !ok {
			return nil, fmt.Errorf("engine: unknown dataset %q", n.Leaf.Dataset)
		}
		return ScanSource(ctx, ds, n.Leaf.Alias, n.Leaf.Filter, n.Leaf.Project)
	}
	rel, err := Execute(ctx, n)
	if err != nil {
		return nil, err
	}
	return SourceOf(ctx, rel), nil
}

// JoinInto runs one join node as a stage pipeline into the sink the factory
// builds: the one dispatcher from a planned algorithm to its executor. Both
// children feed the join as chunk sources — a leaf's scan fuses into the
// exchange and probe loops, so a leaf under a join never materializes as a
// Relation of its own; an interior join's result lands (a parent join must
// hold its build side) and windows straight out of where it landed. Every
// algorithm emits left⧺right whichever side builds; the index join's
// (broadcast) outer is the build side and its inner a base-dataset leaf whose
// index on the first join key is probed in place.
func JoinInto(ctx *Context, j *plan.Join, mk SinkFactory) error {
	buildNode, probeNode := j.Left, j.Right
	buildKeys, probeKeys := j.LeftKeys, j.RightKeys
	if !j.BuildLeft {
		buildNode, probeNode = j.Right, j.Left
		buildKeys, probeKeys = j.RightKeys, j.LeftKeys
	}
	switch j.Algo {
	case plan.AlgoHash, plan.AlgoBroadcast:
		probe, err := sourceForNode(ctx, probeNode)
		if err != nil {
			return err
		}
		build, err := sourceForNode(ctx, buildNode)
		if err != nil {
			return err
		}
		if j.Algo == plan.AlgoBroadcast {
			return BroadcastJoinStream(ctx, build, probe, buildKeys, probeKeys, j.BuildLeft, mk)
		}
		return HashJoinStream(ctx, build, probe, buildKeys, probeKeys, j.BuildLeft, mk)
	case plan.AlgoIndexNL:
		leaf := probeNode.Leaf
		if leaf == nil || leaf.Temp {
			return fmt.Errorf("engine: index NL join requires a base-dataset leaf inner, got %s", probeNode.Compact())
		}
		ds, ok := ctx.Catalog.Get(leaf.Dataset)
		if !ok {
			return fmt.Errorf("engine: unknown dataset %q", leaf.Dataset)
		}
		// Inner keys arrive qualified ("alias.field"); the index layer wants the
		// bare field names of the base dataset.
		bare := make([]string, len(probeKeys))
		for i, k := range probeKeys {
			bare[i] = strings.TrimPrefix(k, leaf.Alias+".")
		}
		outer, err := sourceForNode(ctx, buildNode)
		if err != nil {
			return err
		}
		return IndexNLJoinStream(ctx, outer, ds, leaf.Alias, buildKeys, bare, leaf.Filter, j.BuildLeft, mk)
	default:
		return fmt.Errorf("engine: unknown join algorithm %v", j.Algo)
	}
}

// ProjectColumns narrows a relation to the named qualified columns, keeping
// partitioning knowledge when every partitioning column survives. Columns
// named but absent from the schema are skipped.
func ProjectColumns(rel *Relation, cols []string) (*Relation, error) {
	var idxs []int
	out := &types.Schema{}
	for _, c := range cols {
		i, ok := rel.Schema.Index(c)
		if !ok {
			continue
		}
		idxs = append(idxs, i)
		out.Fields = append(out.Fields, rel.Schema.Fields[i])
	}
	if len(idxs) == 0 {
		return nil, fmt.Errorf("engine: interior projection %v matches no columns of %s", cols, rel.Schema)
	}
	proj := &Relation{Schema: out, Parts: make([][]types.Tuple, len(rel.Parts))}
	for p, part := range rel.Parts {
		rows := make([]types.Tuple, len(part))
		var arena types.Arena
		arena.Reserve(len(part) * len(idxs)) // exact: one chunk per partition
		for r, t := range part {
			nt := arena.Make(len(idxs))
			for k, i := range idxs {
				nt[k] = t[i]
			}
			rows[r] = nt
		}
		proj.Parts[p] = rows
	}
	if rel.PartCols != nil {
		mapped := make([]int, 0, len(rel.PartCols))
		ok := true
		for _, pc := range rel.PartCols {
			found := -1
			for k, i := range idxs {
				if i == pc {
					found = k
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			mapped = append(mapped, found)
		}
		if ok {
			proj.PartCols = mapped
		}
	}
	return proj, nil
}

// Result is a finished query result at the coordinator.
type Result struct {
	Columns []string
	Rows    []types.Tuple
}

// Finish applies the non-join clauses to the joined relation at the
// coordinator in one pass — §6.4: they are evaluated after all joins and
// selections complete. Every SELECT item (an aggregate's argument, not the
// call), GROUP BY key and ORDER BY key is compiled once against the
// relation's schema. Rows group when there is a GROUP BY or an aggregate —
// into exactly one group without GROUP BY — and are otherwise each their own
// output. An output is projected from the row that founded it, or read from
// its aggregate state; its ORDER BY keys come from the founding row too, so
// a grouped query's plain items and order keys must be functionally
// dependent on the grouping keys, as the evaluation queries are. One stable
// sort and LIMIT follow. A query ValidateQuery rejects is rejected here too,
// for callers that reach Finish without core.Analyze.
func Finish(ctx *Context, q *sqlpp.Query, rel *Relation) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ValidateQuery(q); err != nil {
		return nil, err
	}
	// Result rows are metered as coordinator traffic exactly as the gathered
	// copy was, but the finishing clauses stream the partitions in order
	// instead of concatenating a coordinator copy first.
	acct := ctx.Accounting()
	acct.ShuffleRows.Add(rel.RowCount())
	acct.ShuffleBytes.Add(rel.ByteSize())

	env := ctx.Env(rel.Schema)
	res := &Result{}
	var err error
	var sels []selItem
	aggregates := false
	if q.SelectStar {
		for _, f := range rel.Schema.Fields {
			res.Columns = append(res.Columns, f.QName())
		}
	} else {
		sels = make([]selItem, len(q.Select))
		for i, s := range q.Select {
			kind, arg := aggOf(s.Expr)
			if kind == aggNone {
				arg = s.Expr
			}
			eval, err := expr.Compile(arg, env)
			if err != nil {
				return nil, err
			}
			sels[i] = selItem{kind: kind, eval: eval}
			aggregates = aggregates || kind != aggNone
			res.Columns = append(res.Columns, cmp.Or(s.Alias, s.Expr.SQL()))
		}
	}
	groupBy := make([]expr.Compiled, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if groupBy[i], err = expr.Compile(g, env); err != nil {
			return nil, err
		}
	}
	orderBy := make([]expr.Compiled, len(q.OrderBy))
	for i, o := range q.OrderBy {
		if orderBy[i], err = expr.Compile(o.Expr, env); err != nil {
			return nil, err
		}
	}

	// Group: outs holds each output's founding row until it is projected,
	// states (with aggregates) its accumulators. The group table grows one
	// key per distinct group — with aggregates also the founding row and
	// its accumulators — metered against the grant so an unbounded GROUP BY
	// is visible to the governor, and released when the pass ends.
	grouped := aggregates || len(groupBy) > 0
	capHint := 0
	if !grouped {
		capHint = int(rel.RowCount())
	}
	outs := make([]types.Tuple, 0, capHint)
	var states [][]aggState
	const aggStateBytes = 48 // approximate per-aggregate accumulator footprint
	groups := map[string]int{}
	var held int64
	defer func() { ctx.Grant.Release(held) }()
	var key []byte // reused row to row
	for _, part := range rel.Parts {
		if !grouped {
			outs = append(outs, part...)
			continue
		}
		for _, row := range part {
			if key, err = groupKey(key[:0], groupBy, row); err != nil {
				return nil, err
			}
			g, ok := groups[string(key)] // no copy: only a new group keeps its key
			if !ok {
				k := string(key)
				g = len(outs)
				groups[k] = g
				outs = append(outs, row)
				sz := int64(len(k))
				if aggregates {
					states = append(states, make([]aggState, len(sels)))
					//dynopt:size-ok first row of a new group: the group table has no cached size, and only group-founding rows pay the walk
					sz += int64(row.EncodedSize()) + int64(len(sels))*aggStateBytes
				}
				held += sz
				ctx.Grant.Reserve(sz)
			}
			for i, s := range sels {
				if s.kind == aggNone {
					continue
				}
				v, err := s.eval(row)
				if err != nil {
					return nil, err
				}
				states[g][i].observe(v)
			}
		}
	}
	if aggregates && len(groupBy) == 0 && len(outs) == 0 {
		// A global aggregate has its one group over empty input too (count
		// 0, the others NULL); plain items read an all-NULL row.
		outs = append(outs, make(types.Tuple, len(rel.Schema.Fields)))
		states = append(states, make([]aggState, len(sels)))
	}

	// Read each output's order keys from its founding row, then project it
	// in place; SELECT * keeps the stored row.
	var keys []types.Tuple
	if len(orderBy) > 0 {
		keys = make([]types.Tuple, len(outs))
	}
	var keyArena, rowArena types.Arena
	keyArena.Reserve(len(keys) * len(orderBy))
	rowArena.Reserve(len(outs) * len(sels))
	for i, src := range outs {
		if keys != nil {
			keys[i] = keyArena.Make(len(orderBy))
			for j, o := range orderBy {
				if keys[i][j], err = o(src); err != nil {
					return nil, err
				}
			}
		}
		if q.SelectStar {
			continue
		}
		p := rowArena.Make(len(sels))
		for j, s := range sels {
			if s.kind != aggNone {
				p[j] = states[i][j].result(s.kind)
			} else if p[j], err = s.eval(src); err != nil {
				return nil, err
			}
		}
		outs[i] = p
	}
	if keys != nil {
		sort.Stable(ordered{rows: outs, keys: keys, by: q.OrderBy})
	}
	if q.Limit >= 0 && int64(len(outs)) > q.Limit {
		outs = outs[:q.Limit]
	}
	res.Rows = outs
	return res, nil
}

// FilterFor conjuncts an alias's local predicates into a single filter
// expression (nil when the alias has none).
func FilterFor(locals []expr.Expr) expr.Expr {
	switch len(locals) {
	case 0:
		return nil
	case 1:
		return locals[0]
	default:
		return &expr.And{Kids: locals}
	}
}
