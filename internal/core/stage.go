package core

import (
	"fmt"
	"slices"
	"strings"

	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/memo"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// runState carries everything Algorithm 1 threads through its iterations:
// the current query (as text, re-parsed each loop to follow Figure 2's
// reformulated-query edge), the report-plan fragments per alias, and the
// mapping from intermediate columns back to original qualified names so the
// assembled report tree speaks the original query's vocabulary.
type runState struct {
	ctx    *engine.Context
	est    *Estimator
	cfg    AlgoConfig
	report *Report

	sql  string
	g    *sqlpp.Graph
	need map[string]map[string]bool // original-query needed columns per ORIGINAL alias

	// fragment[alias] is the assembled plan subtree producing that alias's
	// data, expressed over base datasets (for oracle re-execution and
	// appendix-style printing).
	fragment map[string]*plan.Node
	// origin[alias][column] maps a current column of alias to its original
	// "alias.field" qualified name.
	origin map[string]map[string]string

	tempNames []string // temps registered by this run, dropped at the end
	stage     int
	// observedSpillBytes is the run-file I/O the previous join stage metered
	// (real-spill mode only). It is the runtime signal the paper's Figure-2
	// loop feeds back: once a stage has actually spilled, the Planner's next
	// pick charges candidate joins for the disk round trips their build
	// sides would pay under the current memory budget, preferring orders
	// that keep the next build side resident.
	observedSpillBytes int64
	// naive makes the Planner choose joins by raw input cardinalities
	// (INGRES-like baseline) instead of formula (1).
	naive bool
	// onlineStats gates sketch collection at every Sink, including the
	// push-down materializations (row counts are always kept).
	onlineStats bool

	// Plan-memo state. rec, when non-nil, accumulates this run's stage
	// decisions and observed cardinalities for memoization. replay is set
	// while a memoized plan is being driven: stages execute without
	// blocking re-optimization accounting (nothing blocks to re-plan) and
	// without online-statistics sketches, and each stage's sink cardinality
	// is checked against the memo's tolerance band instead.
	rec      *memo.Entry
	replay   bool
	memoOpts memo.Options
	// memoGraph is the original analyzed graph (before any reconstruction),
	// kept so the entry's dataset list and statistics fingerprint can be
	// computed lazily at record time — a fully replayed query never pays
	// for them. Reconstruction builds fresh Query/Graph objects, so the
	// pointer stays valid.
	memoGraph *sqlpp.Graph
	// lastStageRows is the row count the most recent staged job (push-down
	// or join) materialized — the replay guardrail's observation.
	lastStageRows int64
}

// Analyze is the one door a statement enters through: it parses the text,
// runs semantic analysis and validates the clauses the engine finishes
// (engine.ValidateQuery), so a query the engine would reject fails before
// any sample, shadow run, push-down, memo replay or stage runs. Its errors
// are the user's, returned as sqlpp and the engine report them.
func Analyze(ctx *engine.Context, sql string) (*sqlpp.Graph, error) {
	q, err := sqlpp.Parse(sql)
	if err != nil {
		return nil, err
	}
	g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
	if err != nil {
		return nil, err
	}
	if err := engine.ValidateQuery(q); err != nil {
		return nil, err
	}
	return g, nil
}

// analyze runs Analyze on the current SQL text. On the user's own statement
// its errors are the user's, as under the static strategies.
func (rs *runState) analyze() error {
	g, err := Analyze(rs.ctx, rs.sql)
	if err != nil {
		return err
	}
	rs.g = g
	return nil
}

// reanalyze is analyze on a query this run reconstructed — the loop back
// through the SQL++ parser in Figure 2. A failure here is the optimizer's,
// and says so, with the text it produced.
func (rs *runState) reanalyze() error {
	if err := rs.analyze(); err != nil {
		return fmt.Errorf("core: reconstructed query failed to re-parse and re-analyze: %w\n%s", err, rs.sql)
	}
	return nil
}

// originKey resolves a current qualified column ("iab.b_c") to its original
// qualified name ("b.c").
func (rs *runState) originKey(alias, column string) string {
	if m, ok := rs.origin[alias]; ok {
		if orig, ok := m[column]; ok {
			return orig
		}
	}
	return alias + "." + column
}

// initFragments seeds the per-alias plan fragments and origin maps from the
// original query graph.
func (rs *runState) initFragments() error {
	rs.fragment = map[string]*plan.Node{}
	rs.origin = map[string]map[string]string{}
	need := rs.g.NeededColumns()
	rs.need = need
	for _, alias := range rs.g.Aliases {
		ref := rs.g.Tables[alias]
		leaf := &plan.Leaf{Dataset: ref.Dataset, Alias: alias}
		if f := engine.FilterFor(rs.g.Locals[alias]); f != nil {
			leaf.Filter = f
			leaf.Filtered = true
		}
		if !rs.g.Query.SelectStar {
			if cols, ok := need[alias]; ok {
				for c := range cols {
					leaf.Project = append(leaf.Project, c)
				}
				slices.Sort(leaf.Project)
			}
		}
		rs.fragment[alias] = plan.NewLeaf(leaf)
	}
	return nil
}

// pushDownPredicates implements lines 6–9 and 20–23 of Algorithm 1: every
// dataset with more than one local predicate, or any complex one (UDF /
// parameter), is wrapped in a single-variable query, executed, and
// materialized with fresh statistics; the main query is reconstructed to
// reference the intermediate. With all set, every filtered dataset is
// decomposed (the original INGRES behaviour). Returns the number of
// datasets pushed down.
func (rs *runState) pushDownPredicates(all bool) (int, error) {
	count := 0
	for {
		var target string
		for _, alias := range rs.g.Aliases {
			locals := rs.g.Locals[alias]
			if len(locals) == 0 {
				continue
			}
			complex := false
			for _, p := range locals {
				if expr.IsComplex(p) {
					complex = true
					break
				}
			}
			if all || len(locals) > 1 || complex {
				target = alias
				break
			}
		}
		if target == "" {
			return count, nil
		}
		if err := rs.executePushDown(target); err != nil {
			return count, err
		}
		count++
	}
}

// executePushDown runs the single-variable query for one alias: scan with
// its full local filter and the needed-column projection, materialize as a
// temp with statistics on every retained column (they all participate in the
// remaining query, by construction of the projection list), and reconstruct
// the query text. The scan's decode pass feeds the Sink chunk-by-chunk —
// filter, projection, statistics, and write metering in one pass, with no
// intermediate relation.
func (rs *runState) executePushDown(alias string) error {
	info := rs.currentTable(alias)
	if info == nil {
		return fmt.Errorf("core: push-down alias %q not found", alias)
	}
	ds, err := datasetOf(rs.ctx.Catalog, info)
	if err != nil {
		return err
	}
	tempName := rs.ctx.TempName("pred_" + alias)
	src, err := engine.ScanSource(rs.ctx, ds, alias, info.Filter, info.Project)
	if err != nil {
		return err
	}
	// Collect statistics on every retained column: the projection is
	// exactly the set of columns the remaining query touches (§5.1).
	// Disabled in cardinality-only configurations and during memo replay
	// (the remembered plan needs no fresh sketches; row counts are always
	// kept, which is what a post-fallback planner falls back to).
	var statsFields map[string]bool
	if rs.onlineStats && !rs.replay {
		statsFields = map[string]bool{}
		for _, f := range src.Schema().Fields {
			statsFields[sqlpp.FlattenName(f.Qualifier, f.Name)] = true
		}
	}
	sink := engine.NewStreamSink(rs.ctx, src.Schema(), src.Parts(), tempName, statsFields, src.PartCols())
	if err := engine.RunToSink(rs.ctx, src, sink); err != nil {
		return err
	}
	tds, tst, err := sink.Finish()
	if err != nil {
		return err
	}
	// The flattened names are alias_col; rename back to bare col so the
	// reconstructed query's alias.col references still resolve: the
	// ReplaceFilteredDataset reconstruction keeps the alias and column
	// names (A → A′ in the paper keeps the attribute names).
	prefix := alias + "_"
	for i := range tds.Schema.Fields {
		tds.Schema.Fields[i].Name = strings.TrimPrefix(tds.Schema.Fields[i].Name, prefix)
	}
	for i, pk := range tds.PrimaryKey {
		tds.PrimaryKey[i] = strings.TrimPrefix(pk, prefix)
	}
	// The statistics are renamed into a fresh map: renamed in place, the
	// flattened t_k (column k) and t_t_k (column t_k) would overwrite each
	// other's sketches depending on map order.
	bare := make(map[string]*stats.FieldStats, len(tst.Fields))
	for f, fs := range tst.Fields {
		bare[strings.TrimPrefix(f, prefix)] = fs
	}
	tst.Fields = bare
	if err := rs.registerStage(tempName, tds, tst); err != nil {
		return err
	}
	rs.report.PushDowns++
	if rs.rec != nil {
		rs.rec.Stages = append(rs.rec.Stages, memo.Stage{
			Kind: memo.StagePushDown, Alias: alias, ObservedRows: rs.lastStageRows,
		})
	}
	rs.report.StagePlans = append(rs.report.StagePlans,
		fmt.Sprintf("pushdown %s: σ(%s) → %s [%d rows]", alias, alias, tempName, tds.RowCount()))

	newQ, err := sqlpp.ReplaceFilteredDataset(rs.g.Query, alias, tempName)
	if err != nil {
		return err
	}
	rs.sql = newQ.SQL()
	return rs.reanalyze()
}

// registerStage lands one stage's materialized result — a push-down's or a
// join's — in the catalog, feeds its statistics back to the planner registry
// and counts the re-optimization point.
func (rs *runState) registerStage(tempName string, tds *storage.Dataset, tst *stats.DatasetStats) error {
	// Track the temp before registering it: if registration faults or
	// panics partway, cleanup still knows the name and the catalog is left
	// with no half-registered dataset for concurrent queries to trip on.
	rs.tempNames = append(rs.tempNames, tempName)
	if err := rs.ctx.Faults.Fire(faults.Point("catalog.register")); err != nil {
		return err
	}
	if err := rs.ctx.Catalog.Register(tds, tst); err != nil {
		return err
	}
	rs.est.Reg.Put(tst) // feedback into the planner registry (no-op when shared)
	if !rs.replay {
		// A replayed stage still executes and materializes, but nothing
		// blocks on it to re-plan: it is not a re-optimization point, and the
		// simulated cost model charges no re-opt latency for it.
		rs.ctx.Accounting().ReoptPoints.Add(1)
	}
	rs.lastStageRows = tds.RowCount()
	return nil
}

// currentTable builds the TableInfo for one alias of the current graph.
func (rs *runState) currentTable(alias string) *TableInfo {
	tables, err := rs.currentTables()
	if err != nil {
		return nil
	}
	return tables[alias]
}

// currentTables estimates every alias of the current graph.
func (rs *runState) currentTables() (Tables, error) {
	return BuildTables(rs.est, rs.g, rs.g.NeededColumns(), rs.g.Query.SelectStar)
}

// pickCheapestJoin is the Planner's line 27–28: scan all current edges and
// return the one with the least estimated result cardinality. In naive
// (INGRES-like) mode the choice minimizes the sum of input cardinalities
// instead, and the result is guessed as the larger input.
func (rs *runState) pickCheapestJoin(tables Tables) (*sqlpp.JoinEdge, int64, error) {
	var best *sqlpp.JoinEdge
	var bestScore, bestCard int64
	for _, edge := range rs.g.Joins {
		var score, card int64
		if rs.naive {
			lt, rt := tables[edge.LeftAlias], tables[edge.RightAlias]
			if lt == nil || rt == nil {
				return nil, 0, fmt.Errorf("core: unknown alias in edge %s", edge)
			}
			score = lt.EstRows + rt.EstRows
			card = max(lt.EstRows, rt.EstRows)
		} else {
			var err error
			card, err = rs.est.JoinEstimate(edge, tables)
			if err != nil {
				return nil, 0, err
			}
			score = card + rs.spillPenalty(edge, tables)
		}
		if best == nil || score < bestScore {
			best, bestScore, bestCard = edge, score, card
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("core: no joins left to pick")
	}
	return best, bestCard, nil
}

// spillPenalty prices the run-file round trip a candidate join's build side
// would pay under the real memory budget, in formula-(1) cardinality units:
// build rows beyond the cluster-resident capacity are written once and read
// once. It activates only in real-spill mode and only after a stage has
// actually spilled (observedSpillBytes is the runtime feedback signal), so
// simulated-mode plans — and the Figure 7 golden counters — never move.
func (rs *runState) spillPenalty(edge *sqlpp.JoinEdge, tables Tables) int64 {
	budget := rs.ctx.SpillBudget()
	if budget == 0 || rs.observedSpillBytes == 0 {
		return 0
	}
	lt, rt := tables[edge.LeftAlias], tables[edge.RightAlias]
	if lt == nil || rt == nil {
		return 0
	}
	// The join-algorithm rule builds on the smaller-cardinality side.
	bRows, bBytes := lt.EstRows, lt.EstBytes
	if rt.EstRows < lt.EstRows {
		bRows, bBytes = rt.EstRows, rt.EstBytes
	}
	resident := budget * int64(rs.ctx.Cluster.Nodes())
	if bBytes <= resident || bRows <= 0 {
		return 0
	}
	width := bBytes / bRows
	if width < 1 {
		width = 1
	}
	return 2 * (bBytes - resident) / width
}

// executeJoinStage runs one iteration of the loop (lines 12–15): build the
// job for the chosen join (the caller picked edge, algorithm, and build
// side — the Planner in the dynamic loop, the memo entry during replay),
// execute it, materialize the result with online statistics on the join
// keys of the remaining query, register the temp, and reconstruct the query
// text. The join's output chunks flow straight into the Sink, so the stage's
// statistics, metering, and temp write happen in the pass that produces each
// chunk.
func (rs *runState) executeJoinStage(edge *sqlpp.JoinEdge, estCard int64, tables Tables, onlineStats bool, algo plan.Algo, buildLeft bool) error {
	lt := tables[edge.LeftAlias]
	rt := tables[edge.RightAlias]
	rs.stage++
	newAlias := fmt.Sprintf("ij%d", rs.stage)
	tempName := rs.ctx.TempName(newAlias)

	// Online statistics: only the attributes participating in subsequent
	// join stages (§5.3), unless disabled (last iteration / overhead runs).
	var statsFields map[string]bool
	if onlineStats {
		statsFields = map[string]bool{}
		for _, other := range rs.g.Joins {
			if other == edge {
				continue
			}
			for i := range other.LeftFields {
				for _, side := range []struct {
					alias, field string
				}{
					{other.LeftAlias, other.LeftFields[i]},
					{other.RightAlias, other.RightFields[i]},
				} {
					if side.alias == edge.LeftAlias || side.alias == edge.RightAlias {
						statsFields[sqlpp.FlattenName(side.alias, side.field)] = true
					}
				}
			}
		}
	}

	spillBefore := rs.ctx.Accounting().SpillBytes.Load()
	var pagesBefore, prunedBefore int64
	if rs.ctx.PageStats != nil {
		pagesBefore = rs.ctx.PageStats.PagesTotal.Load()
		prunedBefore = rs.ctx.PageStats.PagesPruned.Load()
	}
	tds, tst, relSchema, err := rs.runJoinJobStream(edge, lt, rt, algo, buildLeft, tempName, statsFields)
	if err != nil {
		return err
	}
	// Figure-2 feedback: what this stage actually spilled informs the next
	// stage's join pick.
	rs.observedSpillBytes = rs.ctx.Accounting().SpillBytes.Load() - spillBefore
	// The report notes the pages this stage's paged scans pruned by zone
	// map, only when pages were actually touched, so in-memory runs print
	// byte-identical plans.
	if rs.ctx.PageStats != nil {
		if dp := rs.ctx.PageStats.PagesTotal.Load() - pagesBefore; dp > 0 {
			pruned := rs.ctx.PageStats.PagesPruned.Load() - prunedBefore
			rs.report.StagePlans = append(rs.report.StagePlans,
				fmt.Sprintf("  storage: zone maps pruned %d/%d pages", pruned, dp))
		}
	}
	if err := rs.registerStage(tempName, tds, tst); err != nil {
		return err
	}
	if !rs.replay {
		rs.report.Reopts++ // stays 0 on a clean replay
	}
	if rs.rec != nil {
		rs.rec.Stages = append(rs.rec.Stages, memo.Stage{
			Kind:      memo.StageJoin,
			LeftAlias: edge.LeftAlias, RightAlias: edge.RightAlias,
			Algo: algo, BuildLeft: buildLeft,
			ObservedRows: rs.lastStageRows,
		})
	}

	// Assemble the report-plan fragment and the origin map for the new alias.
	lfrag, rfrag := rs.fragment[edge.LeftAlias], rs.fragment[edge.RightAlias]
	if lfrag == nil || rfrag == nil {
		return fmt.Errorf("core: missing plan fragment for %s/%s", edge.LeftAlias, edge.RightAlias)
	}
	lkeys := make([]string, len(edge.LeftFields))
	rkeys := make([]string, len(edge.RightFields))
	for i := range edge.LeftFields {
		lkeys[i] = rs.originKey(edge.LeftAlias, edge.LeftFields[i])
		rkeys[i] = rs.originKey(edge.RightAlias, edge.RightFields[i])
	}
	node := plan.NewJoin(&plan.Join{
		Left: lfrag, Right: rfrag,
		LeftKeys: lkeys, RightKeys: rkeys,
		Algo: algo, BuildLeft: buildLeft,
	})
	node.EstRows = estCard
	delete(rs.fragment, edge.LeftAlias)
	delete(rs.fragment, edge.RightAlias)
	rs.fragment[newAlias] = node

	newOrigin := map[string]string{}
	for _, f := range relSchema.Fields {
		flat := sqlpp.FlattenName(f.Qualifier, f.Name)
		newOrigin[flat] = rs.originKey(f.Qualifier, f.Name)
	}
	delete(rs.origin, edge.LeftAlias)
	delete(rs.origin, edge.RightAlias)
	rs.origin[newAlias] = newOrigin

	rs.report.StagePlans = append(rs.report.StagePlans,
		fmt.Sprintf("stage %d: %s → %s [%d rows, est %d]", rs.stage, node.Compact(), tempName, tds.RowCount(), estCard))

	newQ, err := sqlpp.MergeJoin(rs.g.Query, edge, tempName, newAlias)
	if err != nil {
		return err
	}
	rs.sql = newQ.SQL()
	return rs.reanalyze()
}

// runJoinJobStream executes one stage as a single chunked pipeline: the
// join node over the two current tables goes to the engine's dispatcher with
// a StreamSink behind it, so the build side lands under its table, the probe
// side streams scan→exchange→probe chunk-by-chunk, and the output is
// observed, metered and landed as it is produced — one pass over the probe
// side with no probe relation and no sink re-walk; only the
// materializations between re-optimization points remain. Rows arrive
// left⧺right under every algorithm; both halves carry their alias qualifiers,
// and downstream flattening and reconstruction go by name.
func (rs *runState) runJoinJobStream(edge *sqlpp.JoinEdge, lt, rt *TableInfo, algo plan.Algo, buildLeft bool,
	tempName string, statsFields map[string]bool) (*storage.Dataset, *stats.DatasetStats, *types.Schema, error) {
	var sink *engine.StreamSink
	err := engine.JoinInto(rs.ctx, rs.joinNode(edge, lt, rt, algo, buildLeft).Join,
		func(sch *types.Schema, partCols []int) (engine.Sink, error) {
			sink = engine.NewStreamSink(rs.ctx, sch, rs.ctx.Cluster.Nodes(), tempName, statsFields, partCols)
			return sink, nil
		})
	if err != nil {
		return nil, nil, nil, err
	}
	tds, tst, err := sink.Finish()
	if err != nil {
		return nil, nil, nil, err
	}
	return tds, tst, sink.RelSchema(), nil
}

// cleanup drops the temps this run registered.
func (rs *runState) cleanup() {
	for _, name := range rs.tempNames {
		rs.ctx.Catalog.Drop(name)
	}
	rs.tempNames = nil
}
