// Package optimizer is the table of the six strategies §7.2 compares — the
// dynamic approach of internal/core and five baselines that differ from it
// only in how a plan is chosen:
//
//   - cost-based: traditional static cost-based optimization — the complete
//     plan is formed upfront from ingestion-time statistics with
//     independence assumptions and Selinger defaults for complex predicates,
//     then executed as one pipelined job.
//   - best-order: the user writes the query in the optimal order with
//     broadcast hints; realized as a shadow dynamic run (unmetered, on a
//     cloned catalog) whose final plan is executed pipelined with no
//     re-optimization overhead.
//   - worst-order: a right-deep tree scheduling joins in decreasing result
//     size, hash joins only — AsterixDB's default behaviour under the worst
//     possible FROM-clause order.
//   - pilot-run: the sampling approach of [23] — LIMIT-k pilot queries over
//     each input estimate the initial statistics, the first join may be
//     chosen badly, later stages adapt from online feedback.
//   - ingres-like: the original INGRES decomposition — every filtered
//     dataset is executed as a single-variable query and the next join is
//     chosen by raw cardinalities only.
//
// New is the one place a strategy is built. The static ones run through
// core.Static, the adaptive ones through core.Dynamic.
package optimizer

import (
	"fmt"

	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/memo"
	"dynopt/internal/plan"
)

// Names lists the strategies New builds, in the benchmark's run order.
var Names = []string{"dynamic", "cost-based", "best-order", "worst-order", "pilot-run", "ingres-like"}

// New builds the named strategy from the dynamic approach's configuration
// cfg. Every strategy plans under cfg.Algo; cfg.MaxReopts and the plan memo
// m (nil: none) reach the dynamic strategy only. Each baseline's fixed
// settings are written here and nowhere else.
func New(name string, cfg core.Config, m *memo.Store) (core.Strategy, error) {
	unbudgeted := cfg
	unbudgeted.MaxReopts = 0
	switch name {
	case "dynamic":
		return &core.Dynamic{Cfg: cfg, Memo: m}, nil
	case "cost-based":
		return &core.Static{Label: name, Stage: "static plan", Plan: core.PlanFull, Algo: cfg.Algo}, nil
	case "best-order":
		return &BestOrder{Cfg: unbudgeted}, nil
	case "worst-order":
		return &core.Static{Label: name, Stage: "worst-order plan", Plan: planWorst}, nil
	case "pilot-run":
		// Pilot runs replace the predicate push-down phase: predicates are
		// applied during sampling and inline during execution.
		unbudgeted.PushDown = false
		return &PilotRun{Cfg: unbudgeted}, nil
	case "ingres-like":
		return &core.Dynamic{Label: name, Cfg: core.Config{
			Algo:            cfg.Algo,
			PushDown:        true,
			PushDownAll:     true, // full INGRES decomposition
			ReoptLoop:       true,
			CardinalityOnly: true, // cardinalities only: no online statistics, no formula (1)
		}}, nil
	}
	return nil, fmt.Errorf("optimizer: unknown strategy %q", name)
}

// BestOrder executes the optimal plan (as the dynamic approach would find
// it) in a single pipelined job: the user-supplied perfect FROM order plus
// broadcast hints of §7.2. The shadow dynamic run that discovers the plan is
// performed on a cloned catalog with a scratch cluster so none of its work
// is metered against this strategy.
type BestOrder struct {
	Cfg core.Config
}

// Name implements core.Strategy.
func (s *BestOrder) Name() string { return "best-order" }

// Run implements core.Strategy.
func (s *BestOrder) Run(ctx *engine.Context, sql string) (*engine.Result, *core.Report, error) {
	// The statement's own errors go back as every strategy reports them;
	// whatever fails after this is the shadow run's.
	if _, err := core.Analyze(ctx, sql); err != nil {
		return nil, nil, err
	}
	// The shadow run plans on a scratch context with no spill device; hand it
	// the budget explicitly so the plan executed here matches the spilling
	// engine's broadcast rule.
	cfg := s.Cfg
	cfg.Algo = core.PlanningAlgo(ctx, cfg.Algo)
	tree, err := shadowDynamicPlan(ctx, sql, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("optimizer: best-order shadow run: %w", err)
	}
	return (&core.Static{Label: s.Name(), Tree: tree}).Run(ctx, sql)
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
