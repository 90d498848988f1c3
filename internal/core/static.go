package core

import (
	"cmp"
	"fmt"

	"dynopt/internal/engine"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
)

// Planner chooses a whole plan for an analyzed query from the statistics
// est reads, before anything executes: PlanFull, or a baseline's own rule.
type Planner func(est *Estimator, g *sqlpp.Graph, tables Tables, cfg AlgoConfig) (*plan.Node, error)

// Static runs every strategy that fixes the whole plan before anything
// executes, and runs that plan as one pipelined job: the cost-based and
// worst-order baselines plan it from ingestion-time statistics, and an
// oracle executes a tree it is handed — the "statistics known upfront"
// baseline of the §7.1 overhead experiments, and best-order's executor.
type Static struct {
	Label string
	// Stage prefixes the report's one stage line ("single job" when empty).
	Stage string
	// Plan chooses the tree under Algo. Nil executes Tree as given.
	Plan Planner
	Algo AlgoConfig
	Tree *plan.Node
}

// Name implements Strategy.
func (s *Static) Name() string { return s.Label }

// Run implements Strategy: parse and analyze once, choose the tree, run it.
func (s *Static) Run(ctx *engine.Context, sql string) (*engine.Result, *Report, error) {
	return Metered(ctx, s.Name(), sql, func(r *Report) (*engine.Result, error) {
		g, err := Analyze(ctx, sql)
		if err != nil {
			return nil, err
		}
		tree := s.Tree
		if s.Plan != nil {
			est := &Estimator{Cat: ctx.Catalog, Reg: ctx.Catalog.Stats()}
			tables, err := BuildTables(est, g, g.NeededColumns(), g.Query.SelectStar)
			if err != nil {
				return nil, err
			}
			if tree, err = s.Plan(est, g, tables, PlanningAlgo(ctx, s.Algo)); err != nil {
				return nil, err
			}
		}
		if tree == nil {
			return nil, fmt.Errorf("core: %s has no plan tree", s.Name())
		}
		r.Tree = tree
		r.StagePlans = append(r.StagePlans, cmp.Or(s.Stage, "single job")+": "+tree.Compact())
		return runJob(ctx, g, tree)
	})
}

// runJob is the tail every plan ends in, static or the dynamic loop's final
// job: annotate the interior projections, execute the tree as one pipelined
// job, and apply the query's finishing clauses.
func runJob(ctx *engine.Context, g *sqlpp.Graph, tree *plan.Node) (*engine.Result, error) {
	plan.AnnotateProjections(tree, RequiredOutputColumns(g))
	rel, err := engine.Execute(ctx, tree)
	if err != nil {
		return nil, err
	}
	return engine.Finish(ctx, g.Query, rel)
}
