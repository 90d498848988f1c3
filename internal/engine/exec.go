package engine

import (
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
// coordinator: projection of the SELECT list (including aggregate
// functions over the GROUP BY groups), GROUP BY (duplicate elimination on
// the grouping keys when no aggregates are present), ORDER BY, and LIMIT.
// Matches §6.4: other operators are evaluated after all joins and
// selections complete.
func Finish(ctx *Context, q *sqlpp.Query, rel *Relation) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateAggregateQuery(q); err != nil {
		return nil, err
	}
	// Result rows are metered as coordinator traffic exactly as the gathered
	// copy was, but the finishing clauses stream the partitions in order
	// instead of concatenating a coordinator copy first.
	acct := ctx.Accounting()
	acct.ShuffleRows.Add(rel.RowCount())
	acct.ShuffleBytes.Add(rel.ByteSize())
	if !q.SelectStar && hasAggregates(q.Select) {
		return finishAggregate(ctx, q, rel)
	}
	env := ctx.Env(rel.Schema)

	res := &Result{}
	if q.SelectStar {
		for _, f := range rel.Schema.Fields {
			res.Columns = append(res.Columns, f.QName())
		}
	} else {
		for _, s := range q.Select {
			name := s.Alias
			if name == "" {
				name = s.Expr.SQL()
			}
			res.Columns = append(res.Columns, name)
		}
	}

	type finished struct {
		projected types.Tuple
		orderKeys types.Tuple
	}
	var outRows []finished
	// The duplicate-elimination table grows one key per distinct group;
	// meter it against the grant like the hash-aggregate table.
	seen := map[string]bool{}
	var seenBytes int64
	defer func() { ctx.Grant.Release(seenBytes) }()
	var key []byte // reused row to row
	for _, part := range rel.Parts {
		for _, row := range part {
			var projected types.Tuple
			if q.SelectStar {
				projected = row
			} else {
				projected = make(types.Tuple, len(q.Select))
				for i, s := range q.Select {
					v, err := s.Expr.Eval(row, env)
					if err != nil {
						return nil, err
					}
					projected[i] = v
				}
			}
			f := finished{projected: projected}
			if len(q.GroupBy) > 0 {
				var err error
				if key, err = groupKey(key[:0], q.GroupBy, row, env); err != nil {
					return nil, err
				}
				if seen[string(key)] { // no copy: only a new group keeps its key
					continue
				}
				seen[string(key)] = true
				sz := int64(len(key))
				seenBytes += sz
				ctx.Grant.Reserve(sz)
			}
			if len(q.OrderBy) > 0 {
				f.orderKeys = make(types.Tuple, len(q.OrderBy))
				for i, o := range q.OrderBy {
					v, err := o.Expr.Eval(row, env)
					if err != nil {
						return nil, err
					}
					f.orderKeys[i] = v
				}
			}
			outRows = append(outRows, f)
		}
	}

	if len(q.OrderBy) > 0 {
		sort.SliceStable(outRows, func(a, b int) bool {
			for i, o := range q.OrderBy {
				c := outRows[a].orderKeys[i].Compare(outRows[b].orderKeys[i])
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Limit >= 0 && int64(len(outRows)) > q.Limit {
		outRows = outRows[:q.Limit]
	}
	res.Rows = make([]types.Tuple, len(outRows))
	for i, f := range outRows {
		res.Rows[i] = f.projected
	}
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
