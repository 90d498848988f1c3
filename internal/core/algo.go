package core

import (
	"cmp"

	"dynopt/internal/engine"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/storage"
)

// AlgoConfig parameterizes the JoinAlgorithmRule of §6.1.2.
type AlgoConfig struct {
	// BroadcastThresholdBytes is the maximum estimated size of a join input
	// that may be replicated to every node (per-node memory budget). The
	// paper's broadcasts appear at small scale factors and disappear at
	// SF 1000; a fixed threshold against growing data reproduces that.
	BroadcastThresholdBytes int64
	// EnableINLJ allows the indexed nested-loop join to be considered
	// (Figure 8's experiments); off for the Figure 7 runs.
	EnableINLJ bool
	// SpillBudgetBytes, when positive, is the per-node memory budget of a
	// real-spilling execution (Config.SpillDir): a broadcast whose build
	// side is estimated over it is downgraded to a partitioned hash join —
	// replicated copies cannot spill without losing matches, and the engine
	// would fall back at runtime anyway; deciding here keeps every
	// planner's reported plan honest. Zero (simulated mode) keeps the rule
	// unchanged.
	SpillBudgetBytes int64
}

// DefaultAlgoConfig mirrors the evaluation setup: broadcasts allowed up to a
// per-node budget (128 KiB at this repo's scaled-down data sizes — chosen so
// small and filtered dimensions broadcast at low scale factors and stop at
// the largest, the SF-1000 behaviour of §7.3), INLJ off unless the
// experiment enables it.
func DefaultAlgoConfig() AlgoConfig {
	return AlgoConfig{BroadcastThresholdBytes: 128 << 10, EnableINLJ: false}
}

// PlanningAlgo is the configuration a context plans under: cfg with its
// spill budget defaulted from the context's spill device, so the broadcasts
// every planner picks are the ones the engine will run. It is the one place
// the budget is derived.
func PlanningAlgo(ctx *engine.Context, cfg AlgoConfig) AlgoConfig {
	cfg.SpillBudgetBytes = cmp.Or(cfg.SpillBudgetBytes, ctx.SpillBudget())
	return cfg
}

// algoInput summarizes one join input for the algorithm rule.
type algoInput struct {
	estRows  int64
	estBytes int64
	filtered bool
	// base dataset carrying a secondary index on its first join key, and
	// usable as the INLJ inner (a leaf; intermediates lose their indexes).
	indexedBase bool
	// pages is the real page count of the input's disk-native backend (0 for
	// resident datasets). When positive, the rule can compare a full scan's
	// page reads against an index probe's — storage-level access-path
	// selection rather than the size heuristic alone.
	pages int64
}

func sideFromTable(info *TableInfo, ds *storage.Dataset, firstKey string) algoInput {
	return algoInput{
		estRows:     info.EstRows,
		estBytes:    info.EstBytes,
		filtered:    info.Filtered,
		indexedBase: info.IsBase && ds.HasIndex(firstKey),
		pages:       info.Pages,
	}
}

// ChooseAlgo is the JoinAlgorithmRule: pick the physical algorithm and build
// side for one join given both inputs' estimates.
//
// Rules, in order (§6.1.2):
//  1. Indexed nested-loop: one side is small enough to broadcast AND is
//     filtered (otherwise scanning the inner once beats per-row index
//     lookups — the Q8 nation case), AND the other side is a base dataset
//     with a secondary index on its join key. When the inner is a paged
//     dataset the filter heuristic is replaced by real arithmetic (see
//     indexBeatsScannedPages): a binding set smaller than the inner's page
//     count makes index seeks the cheaper access path even unfiltered.
//     Resident inners (pages == 0) keep the original heuristic exactly.
//  2. Broadcast: one side's estimated bytes fit the threshold; replicate it
//     and keep the big side in place.
//  3. Hash: repartition both; build on the smaller side.
//
// The returned buildLeft designates the broadcast/build side.
func ChooseAlgo(cfg AlgoConfig, left, right algoInput) (plan.Algo, bool) {
	if cfg.EnableINLJ {
		if left.estBytes <= cfg.BroadcastThresholdBytes && right.indexedBase &&
			(left.filtered || indexBeatsScannedPages(left.estRows, right.pages)) {
			return plan.AlgoIndexNL, true
		}
		if right.estBytes <= cfg.BroadcastThresholdBytes && left.indexedBase &&
			(right.filtered || indexBeatsScannedPages(right.estRows, left.pages)) {
			return plan.AlgoIndexNL, false
		}
	}
	if left.estBytes <= cfg.BroadcastThresholdBytes || right.estBytes <= cfg.BroadcastThresholdBytes {
		buildLeft := left.estBytes <= right.estBytes
		bb := right.estBytes
		if buildLeft {
			bb = left.estBytes
		}
		if cfg.SpillBudgetBytes > 0 && bb > cfg.SpillBudgetBytes {
			// Real memory governance: the build copy would not stay
			// resident on any node; join partitioned instead.
			return plan.AlgoHash, left.estRows <= right.estRows
		}
		return plan.AlgoBroadcast, buildLeft
	}
	return plan.AlgoHash, left.estRows <= right.estRows
}

// indexBeatsScannedPages is the paged-inner access-path comparison: with a
// real page count in hand, the index join reads at most min(fetched rows,
// pages) of the inner's pages per probe batch — the store serves a batch's
// row offsets in page order, each touched page read once and only the
// matched rows built — while a hash probe's inner scan reads all of them.
// The offsets of a secondary index are not clustered, so nothing places one
// binding's matches on one page: the rule takes outerRows as the stand-in for
// pages touched and picks the index when that is strictly fewer than the scan
// would read. pages == 0 (resident inner) declines, keeping the resident rule
// byte-identical.
func indexBeatsScannedPages(outerRows, pages int64) bool {
	return pages > 0 && outerRows > 0 && outerRows < pages
}

// chooseAlgoForEdge resolves the datasets behind an edge's aliases and runs
// the rule.
func (e *Estimator) chooseAlgoForEdge(cfg AlgoConfig, edge *sqlpp.JoinEdge, tables Tables) (plan.Algo, bool, error) {
	lt := tables[edge.LeftAlias]
	rt := tables[edge.RightAlias]
	lds, err := datasetOf(e.Cat, lt)
	if err != nil {
		return 0, false, err
	}
	rds, err := datasetOf(e.Cat, rt)
	if err != nil {
		return 0, false, err
	}
	algo, buildLeft := ChooseAlgo(cfg,
		sideFromTable(lt, lds, edge.LeftFields[0]),
		sideFromTable(rt, rds, edge.RightFields[0]))
	return algo, buildLeft, nil
}
