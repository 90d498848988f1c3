package core

import (
	"fmt"
	"strings"

	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/memo"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
)

// Config toggles the phases of the dynamic approach. The overhead
// experiments of §7.1 switch individual phases off.
type Config struct {
	Algo AlgoConfig
	// PushDown executes multi/complex local predicates first (§5.1).
	PushDown bool
	// ReoptLoop enables the blocking re-optimization loop (lines 11–15).
	// When false, the remaining query after push-down is planned in full
	// from the refined statistics and executed as one pipelined job — the
	// "predicate push-down only" configuration of Figure 6 (right).
	ReoptLoop bool
	// OnlineStats collects sketches at each Sink (§5.3). When false the
	// planner falls back to record counts only — the "re-optimization
	// without online statistics" configuration of Figure 6 (left).
	OnlineStats bool
	// PushDownAll decomposes every dataset with any local predicate into a
	// single-variable query (the original INGRES decomposition), not only
	// multi/complex ones.
	PushDownAll bool
	// CardinalityOnly makes the Planner choose the next join by the raw
	// input cardinalities (min |A|+|B|) instead of formula (1) — the
	// INGRES-like baseline's naive cost model (§7.2).
	CardinalityOnly bool
	// MaxReopts bounds the number of blocking re-optimization points. When
	// the budget is exhausted the remaining query is planned in full from
	// the statistics gathered so far and executed as one pipelined job —
	// the accuracy-vs-overhead trade-off the paper's §8 proposes exploring.
	// 0 means unlimited.
	MaxReopts int
}

// DefaultConfig enables the full dynamic approach.
func DefaultConfig() Config {
	return Config{Algo: DefaultAlgoConfig(), PushDown: true, ReoptLoop: true, OnlineStats: true}
}

// Dynamic is the paper's runtime dynamic optimization strategy.
type Dynamic struct {
	Cfg Config
	// PlannerReg optionally overrides the statistics registry the Planner
	// estimates from (pilot-run seeds it with sample-derived statistics).
	// Materialized intermediates feed their fresh statistics back into it.
	// Nil uses the catalog's registry.
	PlannerReg *stats.Registry
	// Label overrides the reported strategy name (baselines reusing this
	// driver set it).
	Label string
	// FiltersPreApplied marks the planner registry's statistics as already
	// reflecting local predicates (pilot-run samples).
	FiltersPreApplied bool
	// Memo, when set, is the adaptive plan memo: runs record what the loop
	// converged to per canonical query shape, and later runs of the same
	// shape replay the remembered plan under cardinality guardrails instead
	// of paying the blocking re-optimization passes. Nil (the default)
	// keeps the strategy byte-identical to the paper's loop.
	Memo *memo.Store
}

// Name implements Strategy.
func (d *Dynamic) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "dynamic"
}

// Run executes Algorithm 1.
func (d *Dynamic) Run(ctx *engine.Context, sql string) (*engine.Result, *Report, error) {
	return Metered(ctx, d.Name(), sql, func(r *Report) (*engine.Result, error) {
		return d.Body(ctx, sql, r)
	})
}

// Body is the un-metered Algorithm 1 driver: strategies that wrap extra
// phases around the loop (pilot runs) call it inside their own metering
// window.
func (d *Dynamic) Body(ctx *engine.Context, sql string, r *Report) (*engine.Result, error) {
	reg := d.PlannerReg
	if reg == nil {
		reg = ctx.Catalog.Stats()
	}
	rs := &runState{
		ctx:         ctx,
		est:         &Estimator{Cat: ctx.Catalog, Reg: reg, FiltersPreApplied: d.FiltersPreApplied},
		cfg:         PlanningAlgo(ctx, d.Cfg.Algo),
		report:      r,
		sql:         sql,
		naive:       d.Cfg.CardinalityOnly,
		onlineStats: d.Cfg.OnlineStats,
	}
	defer rs.cleanup()
	if err := rs.analyze(); err != nil {
		return nil, err
	}
	if err := rs.initFragments(); err != nil {
		return nil, err
	}

	// Plan memo: try the guarded replay of a remembered convergence, and arm
	// recording so this run's own convergence (from scratch or from the
	// fallback point) becomes the shape's next entry.
	if d.Memo != nil {
		res, err := d.tryReplay(rs, r)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
	}

	// Lines 6–9: execute multi/complex predicates first. After a mid-replay
	// fallback this picks up exactly the push-downs the replayed prefix did
	// not execute.
	if d.Cfg.PushDown {
		if _, err := rs.pushDownPredicates(d.Cfg.PushDownAll); err != nil {
			return nil, err
		}
	}

	if !d.Cfg.ReoptLoop {
		// Push-down-only mode: plan everything that remains from the
		// refined statistics and run one pipelined job.
		res, err := rs.runRemainderStatically()
		return d.record(rs, res, err)
	}

	// Lines 11–15: while more than two joins remain, execute only the
	// cheapest next join, materialize, and re-optimize the rest.
	for len(rs.g.Joins) > 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d.Cfg.MaxReopts > 0 && rs.report.Reopts >= d.Cfg.MaxReopts {
			// Re-optimization budget exhausted (§8 trade-off): plan the
			// rest from the statistics gathered so far.
			res, err := rs.runRemainderStatically()
			return d.record(rs, res, err)
		}
		tables, err := rs.currentTables()
		if err != nil {
			return nil, err
		}
		edge, card, err := rs.pickCheapestJoin(tables)
		if err != nil {
			return nil, err
		}
		algo, buildLeft, err := rs.est.chooseAlgoForEdge(rs.cfg, edge, tables)
		if err != nil {
			return nil, err
		}
		// Online statistics are skipped once no further re-optimization
		// will happen (three datasets left ⇒ after this stage only two
		// joins remain and the final Planner call decides everything).
		online := d.Cfg.OnlineStats && len(rs.g.Aliases) > 3
		if err := rs.executeJoinStage(edge, card, tables, online, algo, buildLeft); err != nil {
			return nil, err
		}
	}

	// Lines 17–18: plan the final (at most two) joins in one job.
	res, err := rs.runFinal()
	return d.record(rs, res, err)
}

// runFinal plans and executes the last job: zero, one, or two remaining
// joins, pipelined, results to the user (lines 29–30 of Algorithm 1).
func (rs *runState) runFinal() (*engine.Result, error) {
	tables, err := rs.currentTables()
	if err != nil {
		return nil, err
	}
	switch len(rs.g.Joins) {
	case 0:
		if len(rs.g.Aliases) != 1 {
			return nil, fmt.Errorf("core: %d aliases with no joins", len(rs.g.Aliases))
		}
		info := tables[rs.g.Aliases[0]]
		ds, err := datasetOf(rs.ctx.Catalog, info)
		if err != nil {
			return nil, err
		}
		rel, err := engine.Scan(rs.ctx, ds, info.Alias, info.Filter, info.Project)
		if err != nil {
			return nil, err
		}
		rs.report.Tree = rs.fragment[info.Alias]
		return engine.Finish(rs.ctx, rs.g.Query, rel)
	case 1:
		edge := rs.g.Joins[0]
		node, err := rs.finalJoinNode(edge, tables)
		if err != nil {
			return nil, err
		}
		return rs.executeFinalTree(node)
	case 2:
		// Pick the cheaper of the two joins as the inner (line 28), wire the
		// remaining edge(s) as the outer join (lines 29–30).
		inner, innerCard, err := rs.pickCheapestJoin(tables)
		if err != nil {
			return nil, err
		}
		innerNode, err := rs.finalJoinNode(inner, tables)
		if err != nil {
			return nil, err
		}
		innerNode.EstRows = innerCard

		covered := map[string]bool{inner.LeftAlias: true, inner.RightAlias: true}
		var outerEdges []*sqlpp.JoinEdge
		for _, e := range rs.g.Joins {
			if e != inner {
				outerEdges = append(outerEdges, e)
			}
		}
		if len(outerEdges) == 0 {
			return nil, fmt.Errorf("core: lost the outer join edge")
		}
		// The third alias is the one the outer edges attach.
		var third string
		for _, e := range outerEdges {
			for _, a := range []string{e.LeftAlias, e.RightAlias} {
				if !covered[a] {
					third = a
				}
			}
		}
		if third == "" {
			return nil, fmt.Errorf("core: cyclic final join graph not supported")
		}
		node, err := rs.outerJoinNode(innerNode, innerCard, inner, outerEdges, third, tables)
		if err != nil {
			return nil, err
		}
		return rs.executeFinalTree(node)
	default:
		return nil, fmt.Errorf("core: runFinal called with %d joins", len(rs.g.Joins))
	}
}

// finalJoinNode builds the plan node for a remaining edge over current
// tables (leaves reference current datasets: temps or bases), with the
// algorithm the rule picks.
func (rs *runState) finalJoinNode(edge *sqlpp.JoinEdge, tables Tables) (*plan.Node, error) {
	algo, buildLeft, err := rs.est.chooseAlgoForEdge(rs.cfg, edge, tables)
	if err != nil {
		return nil, err
	}
	return rs.joinNode(edge, tables[edge.LeftAlias], tables[edge.RightAlias], algo, buildLeft), nil
}

// joinNode is the two-leaf execution node for one edge over its current
// tables: what a stage hands the engine, and the final job's inner join.
func (rs *runState) joinNode(edge *sqlpp.JoinEdge, lt, rt *TableInfo, algo plan.Algo, buildLeft bool) *plan.Node {
	lkeys := make([]string, len(edge.LeftFields))
	rkeys := make([]string, len(edge.RightFields))
	for i := range edge.LeftFields {
		lkeys[i] = edge.LeftAlias + "." + edge.LeftFields[i]
		rkeys[i] = edge.RightAlias + "." + edge.RightFields[i]
	}
	return plan.NewJoin(&plan.Join{
		Left:     rs.leafNode(lt),
		Right:    rs.leafNode(rt),
		LeftKeys: lkeys, RightKeys: rkeys,
		Algo: algo, BuildLeft: buildLeft,
	})
}

// outerJoinNode wires the final outer join between the inner join's result
// and the third table, merging all remaining edges into one composite
// condition.
func (rs *runState) outerJoinNode(innerNode *plan.Node, innerCard int64, inner *sqlpp.JoinEdge, outerEdges []*sqlpp.JoinEdge, third string, tables Tables) (*plan.Node, error) {
	tt := tables[third]
	tds, err := datasetOf(rs.ctx.Catalog, tt)
	if err != nil {
		return nil, err
	}
	var innerKeys, thirdKeys []string
	for _, e := range outerEdges {
		for i := range e.LeftFields {
			if e.LeftAlias == third {
				thirdKeys = append(thirdKeys, e.LeftAlias+"."+e.LeftFields[i])
				innerKeys = append(innerKeys, e.RightAlias+"."+e.RightFields[i])
			} else {
				thirdKeys = append(thirdKeys, e.RightAlias+"."+e.RightFields[i])
				innerKeys = append(innerKeys, e.LeftAlias+"."+e.LeftFields[i])
			}
		}
	}
	// Size the inner result for the algorithm rule.
	lw := rs.est.Reg.Get(tables[inner.LeftAlias].Dataset)
	rw := rs.est.Reg.Get(tables[inner.RightAlias].Dataset)
	var width int64 = 16
	if lw != nil && rw != nil {
		width = lw.AvgRowBytes() + rw.AvgRowBytes()
	}
	innerInput := algoInput{
		estRows:  innerCard,
		estBytes: innerCard * width,
		filtered: true,
	}
	// The bare field name: everything after the last dot.
	thirdInput := sideFromTable(tt, tds, thirdKeys[0][strings.LastIndexByte(thirdKeys[0], '.')+1:])
	algo, buildLeft := ChooseAlgo(rs.cfg, innerInput, thirdInput)
	return plan.NewJoin(&plan.Join{
		Left:     innerNode,
		Right:    rs.leafNode(tt),
		LeftKeys: innerKeys, RightKeys: thirdKeys,
		Algo: algo, BuildLeft: buildLeft,
	}), nil
}

// leafNode builds the execution leaf for a current table.
func (rs *runState) leafNode(info *TableInfo) *plan.Node {
	ds, _ := rs.ctx.Catalog.Get(info.Dataset)
	return plan.NewLeaf(&plan.Leaf{
		Dataset:  info.Dataset,
		Alias:    info.Alias,
		Filter:   info.Filter,
		Project:  info.Project,
		Temp:     ds != nil && ds.Temp,
		Filtered: info.Filtered,
	})
}

// RequiredOutputColumns collects the qualified columns the query's output
// clauses (SELECT, GROUP BY, ORDER BY) reference — the interior-projection
// root set. Nil for SELECT *.
func RequiredOutputColumns(g *sqlpp.Graph) map[string]bool {
	if g.Query.SelectStar {
		return nil
	}
	out := map[string]bool{}
	add := func(e expr.Expr) {
		for _, c := range expr.ColumnsOf(e) {
			if c.Qualifier != "" {
				out[c.Qualifier+"."+c.Name] = true
			}
		}
	}
	for _, s := range g.Query.Select {
		add(s.Expr)
	}
	for _, ge := range g.Query.GroupBy {
		add(ge)
	}
	for _, o := range g.Query.OrderBy {
		add(o.Expr)
	}
	return out
}

// executeFinalTree runs the last pipelined job and assembles the report
// tree by splicing the stage fragments into the final node structure.
func (rs *runState) executeFinalTree(node *plan.Node) (*engine.Result, error) {
	if rs.rec != nil {
		rs.rec.Final = memoNodeOf(node)
	}
	rs.report.Tree = rs.spliceFragments(node)
	rs.report.StagePlans = append(rs.report.StagePlans, "final: "+node.Compact())
	return runJob(rs.ctx, rs.g, node)
}

// spliceFragments rewrites a final-job plan (whose leaves may reference
// temp datasets) into the full-query report tree by substituting each temp
// leaf with the stage fragment that produced it, and translating join keys
// back to original qualified names.
func (rs *runState) spliceFragments(n *plan.Node) *plan.Node {
	if n == nil {
		return nil
	}
	if n.Leaf != nil {
		if frag, ok := rs.fragment[n.Leaf.Alias]; ok {
			return frag
		}
		return n
	}
	j := n.Join
	lkeys := make([]string, len(j.LeftKeys))
	for i, k := range j.LeftKeys {
		lkeys[i] = rs.originOfQualified(k)
	}
	rkeys := make([]string, len(j.RightKeys))
	for i, k := range j.RightKeys {
		rkeys[i] = rs.originOfQualified(k)
	}
	out := plan.NewJoin(&plan.Join{
		Left:     rs.spliceFragments(j.Left),
		Right:    rs.spliceFragments(j.Right),
		LeftKeys: lkeys, RightKeys: rkeys,
		Algo: j.Algo, BuildLeft: j.BuildLeft,
	})
	out.EstRows = n.EstRows
	return out
}

func (rs *runState) originOfQualified(qualified string) string {
	if alias, field, ok := strings.Cut(qualified, "."); ok {
		return rs.originKey(alias, field)
	}
	return qualified
}

// runRemainderStatically plans the whole remaining query from the current
// (push-down-refined) statistics and executes it as one pipelined job — the
// push-down-only configuration.
func (rs *runState) runRemainderStatically() (*engine.Result, error) {
	tables, err := rs.currentTables()
	if err != nil {
		return nil, err
	}
	node, err := PlanFull(rs.est, rs.g, tables, rs.cfg)
	if err != nil {
		return nil, err
	}
	return rs.executeFinalTree(node)
}
