package main

import (
	"fmt"
	"time"

	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/storage"
	"dynopt/internal/tpch"
	"dynopt/internal/types"
)

// Forced-alternative rows: for each branch of core.ChooseAlgo, the physical
// join the rule picks and the one it rejects, both driven directly on the
// same inputs and priced in wall and simulated time. The rule itself takes
// unexported inputs, so "chosen" restates its documented conditions; nothing
// is hooked into the planner. A ratio above 1 means the rule picked the
// slower road.

var seekKeys = struct{ outer, inner []string }{[]string{"p.p_partkey"}, []string{"l_partkey"}}

// seekOuterRows caps the binding set of the seek-path measurements: Q9's own
// 1,110 filtered parts at sf 50 take twenty seconds per paged call.
const seekOuterRows = 20

// seekOuter is Q9's filtered part relation, cut to seekOuterRows bindings.
func (e *layerEnv) seekOuter() (*engine.Relation, error) {
	filter, err := e.localFilter(tpch.Q9(), "p")
	if err != nil {
		return nil, err
	}
	rel, err := engine.ScanByName(e.ctx, "part", "p", filter, nil)
	if err != nil {
		return nil, err
	}
	if rel.RowCount() > seekOuterRows {
		rel = prefix(rel, float64(seekOuterRows)/float64(rel.RowCount()))
	}
	return rel, nil
}

// pagedLineitem opens (once) lineitem converted to page files behind a cache
// an eighth of its size, indexes included.
func (e *layerEnv) pagedLineitem() (*storage.Dataset, error) {
	if e.pagedLI == nil {
		li := e.dataset("lineitem")
		pds, err := e.pagedCopy("lineitem", "lineitem", storage.NewPageCache(li.ByteSize()/8))
		if err != nil {
			return nil, err
		}
		e.pagedLI = pds
	}
	return e.pagedLI, nil
}

// prefix keeps the leading share of every partition of rel.
func prefix(rel *engine.Relation, share float64) *engine.Relation {
	out := &engine.Relation{Schema: rel.Schema, Parts: make([][]types.Tuple, len(rel.Parts)), PartCols: rel.PartCols}
	for p, rows := range rel.Parts {
		n := int(float64(len(rows))*share + 0.5)
		out.Parts[p] = rows[:min(max(n, 1), len(rows))]
	}
	return out
}

// road is one physical join of a forced-alternative pair.
type road struct {
	algo string
	run  func(ctx *engine.Context) (*engine.Relation, error)
}

const alternativeReps = 3

// compare runs the chosen road and its alternative alternately, requires the
// same row count from both, and files the worse-case regret.
func (e *layerEnv) compare(branch string, ctx *engine.Context, chosen, alt road) error {
	walls := map[string][]float64{}
	sims := map[string]float64{}
	rows := map[string]int64{}
	for rep := 0; rep < alternativeReps; rep++ {
		for _, r := range []road{chosen, alt} {
			id := e.s.rec.begin("alternative:"+branch+":"+r.algo, e.parent, 0)
			before := ctx.Accounting().Snapshot()
			start := time.Now()
			rel, err := r.run(ctx)
			wall := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s via %s: %w", branch, r.algo, err)
			}
			diff := ctx.Accounting().Snapshot().Sub(before)
			sims[r.algo] = ctx.Cluster.Model().SimSeconds(diff, ctx.Cluster.Nodes())
			rows[r.algo] = rel.RowCount()
			walls[r.algo] = append(walls[r.algo], float64(wall)/1e6)
			e.s.rec.end(id, map[string]float64{"sim_s": sims[r.algo], "rows": float64(rows[r.algo])})
		}
	}
	if rows[chosen.algo] != rows[alt.algo] {
		return fmt.Errorf("%s: %s returned %d rows, %s %d", branch, chosen.algo, rows[chosen.algo], alt.algo, rows[alt.algo])
	}
	cw, aw := median(walls[chosen.algo]), median(walls[alt.algo])
	regretWall, regretSim := cw/aw, sims[chosen.algo]/sims[alt.algo]
	e.out["core.algo_regret_wall"] = max(e.out["core.algo_regret_wall"], regretWall)
	e.out["core.algo_regret_sim"] = max(e.out["core.algo_regret_sim"], regretSim)
	e.rows = append(e.rows, fmt.Sprintf("%-28s chosen %-12s %8.2f ms %9.3f simsec | alternative %-12s %8.2f ms %9.3f simsec | chosen/alternative wall %.2f sim %.2f",
		branch, chosen.algo, cw, sims[chosen.algo], alt.algo, aw, sims[alt.algo], regretWall, regretSim))
	return nil
}

func (e *layerEnv) forcedAlternatives() error {
	ssRel, err := engine.ScanByName(e.ctx, "store_sales", "ss", nil, nil)
	if err != nil {
		return err
	}
	items, err := engine.ScanByName(e.ctx, "item", "i", nil, nil)
	if err != nil {
		return err
	}
	ssKey, itemKey := []string{"ss.ss_item_sk"}, []string{"i.i_item_sk"}
	threshold := core.DefaultAlgoConfig().BroadcastThresholdBytes
	// sized returns item cut to about share × the broadcast threshold (all of
	// it when the table is smaller, as at smoke-test scale).
	sized := func(share float64) *engine.Relation {
		return prefix(items, min(1, share*float64(threshold)/float64(items.ByteSize())))
	}
	broadcast := func(build *engine.Relation) road {
		return road{"broadcast", func(ctx *engine.Context) (*engine.Relation, error) {
			return engine.BroadcastJoin(ctx, ssRel, build, ssKey, itemKey, false)
		}}
	}
	hash := func(build *engine.Relation) road {
		return road{"hash", func(ctx *engine.Context) (*engine.Relation, error) {
			return engine.HashJoin(ctx, ssRel, build, ssKey, itemKey, false)
		}}
	}
	// 1. Broadcast versus hash, either side of the byte threshold.
	under, over := sized(0.9), sized(1.1)
	if err := e.compare("broadcast-threshold/under", e.ctx, broadcast(under), hash(under)); err != nil {
		return err
	}
	if over.ByteSize() > threshold {
		if err := e.compare("broadcast-threshold/over", e.ctx, hash(over), broadcast(over)); err != nil {
			return err
		}
	}
	// 2. The spill-budget downgrade: under real memory governance a build
	// side that fits the broadcast threshold but not the budget joins
	// partitioned instead of replicated.
	sctx, done := e.spillContext(spillBudgetBytes)
	defer done()
	if err := e.compare("spill-budget-downgrade", sctx, hash(under), broadcast(under)); err != nil {
		return err
	}
	// 3. Index seeks versus scan plus broadcast for a small filtered outer,
	// on a resident inner and on a paged one.
	parts, err := e.seekOuter()
	if err != nil {
		return err
	}
	pagedLI, err := e.pagedLineitem()
	if err != nil {
		return err
	}
	for _, inner := range []struct {
		branch string
		ds     *storage.Dataset
	}{{"index-seek/resident", e.dataset("lineitem")}, {"index-seek/paged", pagedLI}} {
		seek := road{"index-nl", func(ctx *engine.Context) (*engine.Relation, error) {
			return engine.IndexNLJoin(ctx, parts, inner.ds, "l", seekKeys.outer, seekKeys.inner, nil)
		}}
		scan := road{"scan+bcast", func(ctx *engine.Context) (*engine.Relation, error) {
			li, err := engine.Scan(ctx, inner.ds, "l", nil, nil)
			if err != nil {
				return nil, err
			}
			return engine.BroadcastJoin(ctx, parts, li, seekKeys.outer, []string{"l.l_partkey"}, true)
		}}
		if err := e.compare(inner.branch, e.ctx, seek, scan); err != nil {
			return err
		}
	}
	return nil
}
