package bench

import (
	"fmt"
	"strings"

	"dynopt/internal/core"
)

// OverheadRow is one bar of Figure 6 (left): the dynamic execution time
// decomposed into the plan's inherent cost (statistics known upfront), the
// re-optimization materialization cost, and the online statistics cost.
type OverheadRow struct {
	Query string
	SF    int
	// UpfrontSim: the dynamic-found plan executed as one pipelined job
	// (statistics available from the beginning).
	UpfrontSim float64
	// ReoptSim: re-optimization points enabled, online statistics off.
	ReoptSim float64
	// FullSim: the complete dynamic approach.
	FullSim float64
}

// ReoptOverheadFrac returns (ReoptSim-UpfrontSim)/FullSim — the paper
// reports ~10–15%.
func (r OverheadRow) ReoptOverheadFrac() float64 {
	if r.FullSim <= 0 {
		return 0
	}
	return (r.ReoptSim - r.UpfrontSim) / r.FullSim
}

// StatsOverheadFrac returns (FullSim-ReoptSim)/FullSim — the paper reports
// ~1–5%.
func (r OverheadRow) StatsOverheadFrac() float64 {
	if r.FullSim <= 0 {
		return 0
	}
	return (r.FullSim - r.ReoptSim) / r.FullSim
}

// Figure6Overhead reproduces the left pair of Figure 6: per query and scale
// factor, the three executions of §7.1 (full dynamic; statistics upfront;
// re-optimization without online statistics).
func Figure6Overhead(sfs []int, nodes int) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, sf := range sfs {
		env, err := NewEnv(sf, nodes, false)
		if err != nil {
			return nil, err
		}
		for _, q := range Queries() {
			algo := env.algoConfig()

			fullCfg := core.DefaultConfig()
			fullCfg.Algo = algo
			full, err := env.RunOne(&core.Dynamic{Cfg: fullCfg}, q.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s sf%d full: %w", q.Name, sf, err)
			}

			upfront, err := env.RunOne(&core.Oracle{Label: "upfront", Tree: full.Tree}, q.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s sf%d upfront: %w", q.Name, sf, err)
			}

			noStatsCfg := fullCfg
			noStatsCfg.OnlineStats = false
			noStats, err := env.RunOne(&core.Dynamic{Cfg: noStatsCfg}, q.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s sf%d no-stats: %w", q.Name, sf, err)
			}

			rows = append(rows, OverheadRow{
				Query: q.Name, SF: sf,
				UpfrontSim: upfront.SimSeconds,
				ReoptSim:   noStats.SimSeconds,
				FullSim:    full.SimSeconds,
			})
		}
	}
	return rows, nil
}

// PushdownRow is one bar pair of Figure 6 (right): baseline (exact
// statistics upfront, no re-optimization) vs predicate push-down only.
type PushdownRow struct {
	Query       string
	SF          int
	BaselineSim float64
	PushdownSim float64
}

// OverheadFrac returns the push-down overhead fraction — the paper reports
// ≤3%.
func (r PushdownRow) OverheadFrac() float64 {
	if r.PushdownSim <= 0 {
		return 0
	}
	return (r.PushdownSim - r.BaselineSim) / r.PushdownSim
}

// Figure6Pushdown reproduces the right pair of Figure 6.
func Figure6Pushdown(sfs []int, nodes int) ([]PushdownRow, error) {
	var rows []PushdownRow
	for _, sf := range sfs {
		env, err := NewEnv(sf, nodes, false)
		if err != nil {
			return nil, err
		}
		for _, q := range Queries() {
			algo := env.algoConfig()
			fullCfg := core.DefaultConfig()
			fullCfg.Algo = algo
			full, err := env.RunOne(&core.Dynamic{Cfg: fullCfg}, q.SQL)
			if err != nil {
				return nil, err
			}
			baseline, err := env.RunOne(&core.Oracle{Label: "baseline", Tree: full.Tree}, q.SQL)
			if err != nil {
				return nil, err
			}
			pdCfg := fullCfg
			pdCfg.ReoptLoop = false // push-down only, rest planned statically
			pd, err := env.RunOne(&core.Dynamic{Cfg: pdCfg}, q.SQL)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PushdownRow{
				Query: q.Name, SF: sf,
				BaselineSim: baseline.SimSeconds,
				PushdownSim: pd.SimSeconds,
			})
		}
	}
	return rows, nil
}

// CompareRow is one bar group of Figures 7/8: all six strategies on one
// query at one scale factor.
type CompareRow struct {
	Query string
	SF    int
	// Sim seconds per strategy, keyed by strategy name.
	Sim map[string]float64
	// Plan per strategy (compact notation).
	Plan map[string]string
}

// Figure7 reproduces the six-strategy comparison (hash + broadcast joins).
func Figure7(sfs []int, nodes int) ([]CompareRow, error) {
	return compare(sfs, nodes, false)
}

// Figure8 reproduces the comparison with secondary indexes present and the
// indexed nested-loop join enabled.
func Figure8(sfs []int, nodes int) ([]CompareRow, error) {
	return compare(sfs, nodes, true)
}

func compare(sfs []int, nodes int, indexes bool) ([]CompareRow, error) {
	var rows []CompareRow
	for _, sf := range sfs {
		env, err := NewEnv(sf, nodes, indexes)
		if err != nil {
			return nil, err
		}
		for _, q := range Queries() {
			row := CompareRow{
				Query: q.Name, SF: sf,
				Sim:  map[string]float64{},
				Plan: map[string]string{},
			}
			for _, s := range env.Strategies() {
				rep, err := env.RunOne(s, q.SQL)
				if err != nil {
					return nil, fmt.Errorf("%s sf%d: %w", q.Name, sf, err)
				}
				row.Sim[s.Name()] = rep.SimSeconds
				row.Plan[s.Name()] = rep.Compact()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table1Row is one row of Table 1: average improvement of dynamic over each
// baseline at one scale factor (ratio of the baseline's mean sim time to
// dynamic's, averaged across queries).
type Table1Row struct {
	SF          int
	Improvement map[string]float64 // baseline name → ratio vs dynamic
}

// Table1 derives the average-improvement table from Figure 7 rows.
func Table1(rows []CompareRow) []Table1Row {
	bySF := map[int][]CompareRow{}
	var order []int
	for _, r := range rows {
		if _, ok := bySF[r.SF]; !ok {
			order = append(order, r.SF)
		}
		bySF[r.SF] = append(bySF[r.SF], r)
	}
	var out []Table1Row
	for _, sf := range order {
		group := bySF[sf]
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, r := range group {
			dyn := r.Sim["dynamic"]
			if dyn <= 0 {
				continue
			}
			for name, sim := range r.Sim {
				if name == "dynamic" {
					continue
				}
				sums[name] += sim / dyn
				counts[name]++
			}
		}
		row := Table1Row{SF: sf, Improvement: map[string]float64{}}
		for name, total := range sums {
			row.Improvement[name] = total / float64(counts[name])
		}
		out = append(out, row)
	}
	return out
}

// StrategyOrder is the column order used by the printers (matches Table 1).
var StrategyOrder = []string{"dynamic", "cost-based", "pilot-run", "ingres-like", "best-order", "worst-order"}

// FormatCompare renders Figure 7/8 rows as an aligned text table.
func FormatCompare(rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-5s", "query", "sf")
	for _, s := range StrategyOrder {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-5d", r.Query, r.SF)
		for _, s := range StrategyOrder {
			fmt.Fprintf(&b, " %11.3fs", r.Sim[s])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatOverhead renders Figure 6 (left) rows.
func FormatOverhead(rows []OverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-5s %12s %12s %12s %8s %8s\n",
		"query", "sf", "upfront(s)", "reopt(s)", "full(s)", "reopt%", "stats%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-5d %12.3f %12.3f %12.3f %7.1f%% %7.1f%%\n",
			r.Query, r.SF, r.UpfrontSim, r.ReoptSim, r.FullSim,
			100*r.ReoptOverheadFrac(), 100*r.StatsOverheadFrac())
	}
	return b.String()
}

// FormatPushdown renders Figure 6 (right) rows.
func FormatPushdown(rows []PushdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-5s %12s %12s %10s\n", "query", "sf", "baseline(s)", "pushdown(s)", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-5d %12.3f %12.3f %9.1f%%\n",
			r.Query, r.SF, r.BaselineSim, r.PushdownSim, 100*r.OverheadFrac())
	}
	return b.String()
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "sf")
	for _, s := range StrategyOrder {
		if s == "dynamic" {
			continue
		}
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d", r.SF)
		for _, s := range StrategyOrder {
			if s == "dynamic" {
				continue
			}
			fmt.Fprintf(&b, " %11.2fx", r.Improvement[s])
		}
		b.WriteString("\n")
	}
	return b.String()
}
