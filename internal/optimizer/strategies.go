// Package optimizer implements the five comparison strategies of §7.2,
// built on the planning machinery in internal/core:
//
//   - CostBased: traditional static cost-based optimization — the complete
//     plan is formed upfront from ingestion-time statistics with
//     independence assumptions and Selinger defaults for complex predicates,
//     then executed as one pipelined job.
//   - BestOrder: the user writes the query in the optimal order with
//     broadcast hints; realized as a shadow dynamic run (unmetered, on a
//     cloned catalog) whose final plan is executed pipelined with no
//     re-optimization overhead.
//   - WorstOrder: a right-deep tree scheduling joins in decreasing result
//     size, hash joins only — AsterixDB's default behaviour under the worst
//     possible FROM-clause order.
//   - PilotRun: the sampling approach of [23] — LIMIT-k pilot queries over
//     each input estimate the initial statistics, the first join may be
//     chosen badly, later stages adapt from online feedback.
//   - IngresLike: the original INGRES decomposition — every filtered
//     dataset is executed as a single-variable query and the next join is
//     chosen by raw cardinalities only.
package optimizer

import (
	"cmp"
	"fmt"

	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
)

// CostBased is the traditional static cost-based baseline.
type CostBased struct {
	Cfg core.AlgoConfig
}

// NewCostBased returns the baseline with default algorithm config.
func NewCostBased() *CostBased { return &CostBased{Cfg: core.DefaultAlgoConfig()} }

// Name implements core.Strategy.
func (s *CostBased) Name() string { return "cost-based" }

// Run implements core.Strategy.
func (s *CostBased) Run(ctx *engine.Context, sql string) (*engine.Result, *core.Report, error) {
	return core.Metered(ctx, s.Name(), sql, func(r *core.Report) (*engine.Result, error) {
		q, err := sqlpp.Parse(sql)
		if err != nil {
			return nil, err
		}
		g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
		if err != nil {
			return nil, err
		}
		est := &core.Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
		tables, err := core.BuildTables(est, g, g.NeededColumns(), q.SelectStar)
		if err != nil {
			return nil, err
		}
		// Plan broadcasts against the spill budget the engine will enforce.
		cfg := s.Cfg
		cfg.SpillBudgetBytes = cmp.Or(cfg.SpillBudgetBytes, ctx.SpillBudget())
		tree, err := core.PlanFull(est, g, tables, cfg)
		if err != nil {
			return nil, err
		}
		plan.AnnotateProjections(tree, core.RequiredOutputColumns(g))
		r.Tree = tree
		r.StagePlans = append(r.StagePlans, "static plan: "+tree.Compact())
		rel, err := engine.Execute(ctx, tree)
		if err != nil {
			return nil, err
		}
		return engine.Finish(ctx, q, rel)
	})
}

// BestOrder executes the optimal plan (as the dynamic approach would find
// it) in a single pipelined job: the user-supplied perfect FROM order plus
// broadcast hints of §7.2. The shadow dynamic run that discovers the plan is
// performed on a cloned catalog with a scratch cluster so none of its work
// is metered against this strategy.
type BestOrder struct {
	Cfg core.Config
}

// NewBestOrder returns the baseline with the full dynamic config for its
// shadow run.
func NewBestOrder() *BestOrder { return &BestOrder{Cfg: core.DefaultConfig()} }

// Name implements core.Strategy.
func (s *BestOrder) Name() string { return "best-order" }

// Run implements core.Strategy.
func (s *BestOrder) Run(ctx *engine.Context, sql string) (*engine.Result, *core.Report, error) {
	// The statement's own errors go back as every strategy reports them;
	// whatever fails after this is the shadow run's.
	q, err := sqlpp.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sqlpp.Analyze(q, ctx.Catalog.Resolver()); err != nil {
		return nil, nil, err
	}
	// The shadow run plans on a scratch context with no spill device; hand it
	// the budget explicitly so the plan the Oracle executes matches the
	// spilling engine's broadcast rule.
	cfg := s.Cfg
	cfg.Algo.SpillBudgetBytes = cmp.Or(cfg.Algo.SpillBudgetBytes, ctx.SpillBudget())
	tree, err := shadowDynamicPlan(ctx, sql, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("optimizer: best-order shadow run: %w", err)
	}
	o := &core.Oracle{Label: s.Name(), Tree: tree}
	return o.Run(ctx, sql)
}

// shadowDynamicPlan runs the dynamic strategy on an unmetered scratch
// context and returns its assembled plan tree (over base datasets).
func shadowDynamicPlan(ctx *engine.Context, sql string, cfg core.Config) (*plan.Node, error) {
	scratch := &engine.Context{
		Cluster:   cluster.New(ctx.Cluster.Nodes()),
		Catalog:   ctx.Catalog.CloneBases(),
		UDFs:      ctx.UDFs,
		Params:    ctx.Params,
		ChunkRows: ctx.ChunkRows,
	}
	d := &core.Dynamic{Cfg: cfg}
	_, rep, err := d.Run(scratch, sql)
	if err != nil {
		return nil, err
	}
	if rep.Tree == nil {
		return nil, fmt.Errorf("shadow run produced no plan tree")
	}
	return rep.Tree, nil
}
