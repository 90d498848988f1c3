package core

import (
	"errors"
	"fmt"
	"sort"

	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/memo"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
)

// ShapeKey derives the plan-memo key for an analyzed query under a
// strategy configuration. The shape lifts literals and parameters
// (sqlpp.ShapeOf); the config tag keeps plans recorded under one planning
// universe from replaying under another — a different broadcast threshold,
// INLJ setting, spill budget, re-optimization budget (a budget-truncated
// convergence is not the unlimited loop's plan), or phase toggle occupies
// its own slot.
func ShapeKey(g *sqlpp.Graph, cfg Config) string {
	return fmt.Sprintf("%s|bt=%d inlj=%t spill=%d reopts=%d pd=%t/%t loop=%t online=%t naive=%t",
		sqlpp.ShapeOf(g.Query),
		cfg.Algo.BroadcastThresholdBytes, cfg.Algo.EnableINLJ, cfg.Algo.SpillBudgetBytes,
		cfg.MaxReopts, cfg.PushDown, cfg.PushDownAll, cfg.ReoptLoop, cfg.OnlineStats, cfg.CardinalityOnly)
}

// tryReplay is the memo front door of one dynamic run: compute the shape
// key, refuse stale entries, replay a fresh one under guardrails, and arm
// recording. Returns a non-nil result when the replay completed the query
// (r.CacheHit set); otherwise the caller continues the dynamic loop from
// whatever state the (possibly partial) replay left in rs, and recording is
// armed so the run's convergence re-records the shape.
func (d *Dynamic) tryReplay(rs *runState, r *Report) (*engine.Result, error) {
	keyCfg := d.Cfg
	keyCfg.Algo = rs.cfg // includes the real-spill budget adjustment
	key := ShapeKey(rs.g, keyCfg)
	rs.memoOpts = d.Memo.Opts()
	// Datasets and Fingerprint are filled at record() time from memoGraph:
	// a fully replayed query discards rec, so the registry walk would be
	// wasted exactly on the hot path. Base statistics are immutable and the
	// epoch guard refuses DDL-straddling recordings, so late capture is
	// equivalent.
	rs.rec = &memo.Entry{Shape: key, Born: d.Memo.Epoch()}
	rs.memoGraph = rs.g
	e := d.Memo.Get(key)
	if e == nil {
		return nil, nil
	}
	if reason, stale := e.Fingerprint.Stale(rs.est.Reg, rs.memoOpts.StatsDriftTolerance); stale {
		// Stale-fingerprint replay is refused and the dead entry evicted
		// eagerly (only this entry: a concurrently re-recorded fresh one
		// under the same shape survives). The statistics the plan was
		// derived from no longer describe the data.
		d.Memo.RemoveEntry(e)
		r.StagePlans = append(r.StagePlans, "memo: stale fingerprint ("+reason+"), re-optimizing")
		return nil, nil
	}
	if reason, stale := e.Fingerprint.StalePages(func(name string) int64 {
		return pagesOf(rs.ctx, name)
	}); stale {
		// The storage layout moved — a dataset was converted to paged form
		// (or re-paged) since the plan was recorded. Its access-path
		// decisions compared binding sets against page counts that no longer
		// exist, so the plan must be re-derived.
		d.Memo.RemoveEntry(e)
		r.StagePlans = append(r.StagePlans, "memo: stale storage layout ("+reason+"), re-optimizing")
		return nil, nil
	}
	if err := rs.ctx.Faults.Fire(faults.Point("memo.replay")); err != nil {
		// A faulted replay degrades exactly like a guardrail breach: the
		// dynamic loop runs the query from scratch; nothing was executed yet.
		r.StagePlans = append(r.StagePlans, "memo: replay faulted, re-optimizing: "+err.Error())
		r.ReplayFellBack = true
		d.Memo.NoteFallback()
		return nil, nil
	}
	res, err := rs.replayPlan(e)
	if err != nil {
		return nil, err
	}
	if res != nil {
		r.CacheHit = true
		return res, nil
	}
	r.ReplayFellBack = true
	d.Memo.NoteFallback()
	return nil, nil
}

// record publishes the recorded entry after a successful non-replayed (or
// fallen-back) run. Runs whose final job never materialized a joinable plan
// (single-table queries) record nothing.
func (d *Dynamic) record(rs *runState, res *engine.Result, err error) (*engine.Result, error) {
	if err == nil && d.Memo != nil && rs.rec != nil && rs.rec.Final != nil {
		rs.rec.Datasets = datasetsOfGraph(rs.memoGraph)
		rs.rec.Fingerprint = stats.FingerprintOf(rs.est.Reg, fingerprintFields(rs.memoGraph))
		// Pin the storage layout the plan's access paths were chosen
		// against: page counts come from the catalog, not the statistics
		// registry, so they are stamped here.
		for name, fp := range rs.rec.Fingerprint {
			fp.Pages = pagesOf(rs.ctx, name)
			rs.rec.Fingerprint[name] = fp
		}
		d.Memo.Put(rs.rec)
	}
	return res, err
}

// replayPlan drives a memoized plan: the staged prefix executes as fully
// pipelined jobs with zero blocking re-optimization points, each stage's
// sink cardinality checked against the entry's tolerance band, then the
// remembered final job runs. A nil, nil return means the replay aborted —
// guardrail breach or structural mismatch — with rs left exactly at the
// last materialized intermediate, so the dynamic loop resumes from there
// and no executed work is wasted.
func (rs *runState) replayPlan(e *memo.Entry) (*engine.Result, error) {
	rs.replay = true
	defer func() { rs.replay = false }()
	rs.report.StagePlans = append(rs.report.StagePlans,
		fmt.Sprintf("memo: replaying converged plan (%d staged jobs + final)", len(e.Stages)))

	for i, st := range e.Stages {
		if err := rs.ctx.Err(); err != nil {
			return nil, err
		}
		switch st.Kind {
		case memo.StagePushDown:
			if _, ok := rs.g.Tables[st.Alias]; !ok {
				return nil, rs.abandonReplay(i, "alias %q not in current graph", st.Alias)
			}
			if err := rs.executePushDown(st.Alias); err != nil {
				if errors.Is(err, faults.ErrCorrupt) {
					return nil, rs.abandonReplay(i, "corrupt spill run during replay: %v", err)
				}
				return nil, err
			}
		case memo.StageJoin:
			edge, ok := rs.g.JoinFor(st.LeftAlias, st.RightAlias)
			if !ok || edge.LeftAlias != st.LeftAlias || edge.RightAlias != st.RightAlias {
				return nil, rs.abandonReplay(i, "join %s⋈%s not in current graph", st.LeftAlias, st.RightAlias)
			}
			tables, err := rs.currentTables()
			if err != nil {
				return nil, err
			}
			if err := rs.executeJoinStage(edge, st.ObservedRows, tables, false, st.Algo, st.BuildLeft); err != nil {
				if errors.Is(err, faults.ErrCorrupt) {
					// A corrupt spill run that survived the join's rebuild
					// attempt poisons only this stage: the dynamic loop re-plans
					// and re-executes from the last intact intermediate instead
					// of failing the query.
					return nil, rs.abandonReplay(i, "corrupt spill run during replay: %v", err)
				}
				return nil, err
			}
		default:
			return nil, rs.abandonReplay(i, "unknown stage kind %d", st.Kind)
		}
		if !rs.memoOpts.WithinBand(st.ObservedRows, rs.lastStageRows) {
			// The cardinality guardrail: reality left the memo's band, so
			// stop trusting the remembered order. The stage's materialized
			// intermediate stays — the dynamic loop restarts from it.
			return nil, rs.abandonReplay(i, "observed %d rows vs recorded %d, outside tolerance band",
				rs.lastStageRows, st.ObservedRows)
		}
	}

	tables, err := rs.currentTables()
	if err != nil {
		return nil, err
	}
	node, err := rs.nodeFromMemo(e.Final, tables)
	if err != nil {
		return nil, rs.abandonReplay(len(e.Stages), "final job: %v", err)
	}
	res, err := rs.executeFinalTree(node)
	if err != nil && errors.Is(err, faults.ErrCorrupt) {
		return nil, rs.abandonReplay(len(e.Stages), "corrupt spill run during replay: %v", err)
	}
	return res, err
}

// abandonReplay notes why a replay stopped and returns nil: the caller
// treats a nil result as "fall back to the dynamic loop from here".
func (rs *runState) abandonReplay(stage int, format string, args ...any) error {
	rs.report.StagePlans = append(rs.report.StagePlans,
		fmt.Sprintf("memo: fallback at staged job %d: %s", stage, fmt.Sprintf(format, args...)))
	return nil
}

// nodeFromMemo rebinds a recorded final job to the current tables: leaves
// resolve their alias against this run's graph (base datasets or the temps
// the replayed prefix just materialized), joins keep the remembered
// algorithm and build side.
func (rs *runState) nodeFromMemo(m *memo.Node, tables Tables) (*plan.Node, error) {
	if m == nil {
		return nil, fmt.Errorf("no final job recorded")
	}
	if m.Alias != "" {
		info := tables[m.Alias]
		if info == nil {
			return nil, fmt.Errorf("alias %q not in current graph", m.Alias)
		}
		return rs.leafNode(info), nil
	}
	left, err := rs.nodeFromMemo(m.Left, tables)
	if err != nil {
		return nil, err
	}
	right, err := rs.nodeFromMemo(m.Right, tables)
	if err != nil {
		return nil, err
	}
	node := plan.NewJoin(&plan.Join{
		Left: left, Right: right,
		LeftKeys:  append([]string(nil), m.LeftKeys...),
		RightKeys: append([]string(nil), m.RightKeys...),
		Algo:      m.Algo, BuildLeft: m.BuildLeft,
	})
	node.EstRows = m.EstRows
	return node, nil
}

// memoNodeOf records a final-job plan structurally (aliases and keys only:
// datasets behind temp leaves are per-query names and must rebind at
// replay).
func memoNodeOf(n *plan.Node) *memo.Node {
	if n == nil {
		return nil
	}
	if n.Leaf != nil {
		return &memo.Node{Alias: n.Leaf.Alias}
	}
	j := n.Join
	return &memo.Node{
		Left: memoNodeOf(j.Left), Right: memoNodeOf(j.Right),
		LeftKeys:  append([]string(nil), j.LeftKeys...),
		RightKeys: append([]string(nil), j.RightKeys...),
		Algo:      j.Algo, BuildLeft: j.BuildLeft,
		EstRows: n.EstRows,
	}
}

// pagesOf returns the current physical page count of a catalog dataset
// (0 when it vanished or is resident).
func pagesOf(ctx *engine.Context, name string) int64 {
	ds, ok := ctx.Catalog.Get(name)
	if !ok {
		return 0
	}
	if pgd := ds.Paged(); pgd != nil {
		return int64(pgd.TotalPages())
	}
	return 0
}

// datasetsOfGraph lists the distinct dataset names the graph references,
// sorted — the memo entry's invalidation fan-in.
func datasetsOfGraph(g *sqlpp.Graph) []string {
	seen := map[string]bool{}
	for _, ref := range g.Tables {
		seen[ref.Dataset] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// fingerprintFields maps each referenced dataset to the fields whose
// statistics drove this shape's planning: join keys and local-predicate
// columns. Aliases of one dataset (date_dim d1, d2, d3) union their fields.
func fingerprintFields(g *sqlpp.Graph) map[string]map[string]bool {
	fields := map[string]map[string]bool{}
	add := func(alias, field string) {
		ref, ok := g.Tables[alias]
		if !ok {
			return
		}
		m := fields[ref.Dataset]
		if m == nil {
			m = map[string]bool{}
			fields[ref.Dataset] = m
		}
		m[field] = true
	}
	for _, ref := range g.Tables {
		if fields[ref.Dataset] == nil {
			fields[ref.Dataset] = map[string]bool{}
		}
	}
	for _, e := range g.Joins {
		for i := range e.LeftFields {
			add(e.LeftAlias, e.LeftFields[i])
			add(e.RightAlias, e.RightFields[i])
		}
	}
	for alias, locals := range g.Locals {
		for _, p := range locals {
			for _, c := range expr.ColumnsOf(p) {
				if c.Qualifier == alias || c.Qualifier == "" {
					add(alias, c.Name)
				}
			}
		}
	}
	return fields
}
