package main

import (
	"fmt"

	"dynopt"
)

// perLayer emits the metrics of single layers: unit costs from the layer
// pass, and per-query counts from the rounds' own Metrics (counts repeat
// exactly; every timed op is a "query" here, whatever its strategy).
func (s *session) perLayer(rep *report, l layerResults) {
	t := s.tally()
	c := t.counters
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	unit := func(name, unit, note string) { rep.emit(name, unit, l[name], note) }

	unit("sqlpp.parse_us", "us", "per statement of the op list")
	unit("sqlpp.analyze_us", "us", "")
	unit("sqlpp.reparse_us", "us", "Query.SQL + Parse, paid once per stage by the dynamic loop")
	unit("sqlpp.shape_us", "us", "core.ShapeKey over an analyzed query")

	rep.emit("core.dynamic_ms", "ms", mean(t.dynamicWallMS), "mean wall of the timed dynamic ops")
	unit("core.plan_full_us", "us", "BuildTables + PlanFull per statement")
	rep.emit("core.reopts_per_query", "count", t.perQuery(float64(t.reopts)), "")
	rep.emit("core.pushdowns_per_query", "count", t.perQuery(float64(t.pushdowns)), "")
	rep.emit("core.mat_mb_per_query", "MB", t.perQuery(float64(c.MatWriteBytes)/1e6), "")
	rep.emit("core.stats_obs_per_query", "count", t.perQuery(float64(c.StatsObserved)), "")
	unit("core.algo_regret_wall", "ratio", "worst chosen/alternative wall over the forced-alternative rows")
	unit("core.algo_regret_sim", "ratio", "worst chosen/alternative sim over the same rows")

	for _, st := range []struct {
		name     string
		strategy dynopt.Strategy
	}{
		{"optimizer.costbased_ms", dynopt.StrategyCostBased}, {"optimizer.pilotrun_ms", dynopt.StrategyPilotRun},
		{"optimizer.ingres_ms", dynopt.StrategyIngres}, {"optimizer.bestorder_ms", dynopt.StrategyBestOrder},
	} {
		var walls []float64
		for _, w := range s.wall[st.strategy] {
			walls = append(walls, w...)
		}
		rep.emit(st.name, "ms", mean(walls), fmt.Sprintf("mean wall, %d runs (fidelity pass and rounds)", len(walls)))
	}
	rep.emit("optimizer.wall_sim_rank_tau", "ratio", s.rankTau(), "Kendall tau of wall vs sim strategy ranking, mean over queries")

	unit("engine.scan_filter_ns_per_row", "ns", "orders under Q8's filter, streamed to a counting sink")
	unit("engine.paged_scan_ns_per_row", "ns", "the same scan over page files, cache 1/8 of the data")
	unit("engine.repartition_ns_per_row", "ns", "store_sales onto Q17's composite key")
	unit("engine.hash_join_ns_per_row", "ns", "store_sales x store_returns, pre-partitioned: build + probe")
	unit("engine.broadcast_join_ns_per_row", "ns", "store_sales x filtered date_dim")
	unit("engine.inl_join_us_per_lookup", "us", "filtered part -> lineitem.l_partkey, resident")
	unit("engine.inl_join_paged_us_per_lookup", "us", "the same through page files")
	unit("engine.spill_join_ns_per_row", "ns", "the hash join with 1/8 of the build side as memory, real spill")
	unit("engine.materialize_ns_per_row", "ns", "store_sales to a temp with two key sketches")
	unit("engine.finish_ms", "ms", "group/aggregate/order/limit over store_sales")
	rep.emit("engine.build_rows_per_query", "count", t.perQuery(float64(c.BuildRows)), "")
	rep.emit("engine.probe_rows_per_query", "count", t.perQuery(float64(c.ProbeRows)), "")
	rep.emit("engine.shuffle_mb_per_query", "MB", t.perQuery(float64(c.ShuffleBytes)/1e6), "")
	rep.emit("engine.broadcast_mb_per_query", "MB", t.perQuery(float64(c.BroadcastBytes)/1e6), "")

	unit("expr.filter_scalar_ns_per_row", "ns", "Q8's orders filter, compiled row form")
	unit("expr.filter_vector_ns_per_row", "ns", "the same filter as a vector kernel")

	unit("types.encode_tuple_ns", "ns", "lineitem rows")
	unit("types.decode_tuple_ns", "ns", "")
	unit("types.page_encode_ns_per_row", "ns", "lineitem, 1024-row pages")
	unit("types.page_decode_ns_per_row", "ns", "all columns")
	unit("types.hash_keys_ns_per_row", "ns", "Q17's composite key, row form")
	unit("types.hash_cols_ns_per_row", "ns", "the same key from column vectors, gather included")

	unit("storage.build_ns_per_row", "ns", "store_returns: partition + ingestion statistics")
	unit("storage.build_index_ns_per_row", "ns", "")
	unit("storage.write_paged_mb_per_s", "MB/s", "lineitem to page files")
	unit("storage.open_paged_ms", "ms", "lineitem: sidecar, directory, indexes")
	unit("storage.run_write_mb_per_s", "MB/s", "spill run: append + seal")
	unit("storage.run_read_mb_per_s", "MB/s", "spill run: verify + decode")
	rep.emit("storage.spill_mb_per_query", "MB", t.perQuery(float64(c.SpillBytes)/1e6), "")
	rep.emit("storage.spill_rebuilds", "count", float64(t.rebuilds), "must be 0")
	unit("storage.page_read_us", "us", "uncached page read + CRC")
	rep.emit("storage.page_cache_hit_frac", "ratio", frac(float64(t.pageHits), float64(t.pageHits+t.pageMisses)), "")
	rep.emit("storage.pages_read_per_query", "count", t.perQuery(float64(t.pagesRead)), "")
	rep.emit("storage.pages_pruned_frac", "ratio", frac(float64(t.pagesPruned), float64(t.pagesPruned+t.pagesRead)), "")
	unit("storage.index_lookup_ns", "ns", "store_sales.ss_sold_date_sk")
	unit("storage.paged_bytes_per_user_byte", "ratio", "lineitem page file / encoded rows")

	unit("sketch.gk_insert_ns", "ns", "")
	unit("sketch.hll_add_ns", "ns", "")
	unit("stats.observe_tuple_ns", "ns", "two sketched fields per tuple")
	unit("stats.fingerprint_us", "us", "Q17's datasets and join keys")

	unit("memo.get_ns", "ns", "")
	unit("memo.put_ns", "ns", "")
	rep.emit("memo.hit_frac", "ratio", frac(float64(t.hits), float64(t.dynamic)), "must be 1 on serve")
	rep.emit("memo.fallbacks", "count", float64(t.fallbacks), "must be 0")

	unit("cluster.grant_reserve_ns", "ns", "Reserve + Release")
	unit("cluster.peak_grant_frac", "ratio", "spilling join's peak grant / capacity")
	unit("catalog.register_drop_us", "us", "one temp registered and dropped")

	all := t.allWallsMS
	rep.emit("bench.query_ms_p50", "ms", percentile(all, 0.50), fmt.Sprintf("%d samples of the traced run", len(all)))
	rep.emit("bench.query_ms_p90", "ms", percentile(all, 0.90), fmt.Sprintf("%d samples, %d beyond", len(all), len(all)/10))
	var refs, cycles float64
	for _, r := range s.rounds {
		refs += r.RefMS
		cycles += float64(r.GCCycles)
	}
	untraced, traced := s.roundWalls(false), s.roundWalls(true)
	rep.emit("bench.ref_kernel_ms", "ms", refs/float64(max(len(s.rounds), 1)), "host-speed witness on every core, mean over rounds; reported, not used")
	rep.emit("bench.round_spread_frac", "ratio", spread(untraced), "(p75-p25)/p50 of untraced round wall")
	rep.emit("bench.gc_cycles_per_query", "count", t.perQuery(cycles), "")
	rep.emit("bench.trace_overhead_frac", "ratio", frac(median(traced), median(untraced))-1, "median traced round / median untraced round - 1")
	rep.emit("bench.model_coverage_frac", "ratio", s.modelCoverage(l), "layer unit costs x query counters / measured query wall")
}

// rankTau is, per subject that ran under every strategy, Kendall's tau
// between the strategies' mean wall and their simulated seconds; the mean
// over subjects.
func (s *session) rankTau() float64 {
	var taus []float64
	for _, subj := range s.w.subjects() {
		var wall, sim []float64
		for _, st := range allStrategies {
			if w := s.wall[st][subj.Subject]; len(w) > 0 {
				wall = append(wall, mean(w))
				sim = append(sim, s.sim[st][subj.Subject])
			}
		}
		if len(wall) == len(allStrategies) {
			taus = append(taus, kendallTau(wall, sim))
		}
	}
	return mean(taus)
}

// modelCoverage says how much of the timed queries' wall the layer rows
// explain: each query's counters priced at the layer pass's unit costs, over
// the wall the harness measured. The remainder is allocator, GC and glue.
func (s *session) modelCoverage(l layerResults) float64 {
	scan, seek := l["engine.scan_filter_ns_per_row"], l["engine.inl_join_us_per_lookup"]*1e3
	if s.w.Paged {
		scan, seek = l["engine.paged_scan_ns_per_row"], l["engine.inl_join_paged_us_per_lookup"]*1e3
	}
	var model, wall float64
	for _, smp := range s.samples {
		c := smp.M.Counters
		stages := float64(smp.M.Reopts + smp.M.PushDowns)
		model += (l["sqlpp.parse_us"]+l["sqlpp.analyze_us"])*1e3 +
			stages*(l["sqlpp.reparse_us"]+l["sqlpp.analyze_us"]+l["catalog.register_drop_us"])*1e3 +
			float64(c.ScanRows+c.MatReadRows)*scan +
			float64(c.ShuffleRows)*l["engine.repartition_ns_per_row"] +
			float64(c.BuildRows+c.ProbeRows)*l["engine.hash_join_ns_per_row"] +
			float64(c.MatWriteRows)*l["engine.materialize_ns_per_row"] +
			float64(c.IndexLookups)*seek +
			float64(c.SpillRows)*l["engine.spill_join_ns_per_row"]
		wall += smp.WallMS * 1e6
	}
	if wall == 0 {
		return 0
	}
	return model / wall
}
