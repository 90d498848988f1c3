package core

import (
	"fmt"
	"math/bits"
	"strings"

	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
)

// dpEntry is the best known plan for one alias subset.
type dpEntry struct {
	node     *plan.Node
	rows     int64
	bytes    int64
	cost     float64
	filtered bool
	// leafAlias is set when the subset is a single alias (INLJ inner
	// eligibility: only base leaves keep their indexes).
	leafAlias string
}

// PlanFull enumerates bushy join trees over the query graph with dynamic
// programming (System-R generalized to bushy shapes) and returns the
// cheapest full plan under the C_out cost function (sum of intermediate
// result cardinalities), annotated with physical algorithms by the same
// JoinAlgorithmRule the dynamic approach uses.
//
// This is the machinery behind the static cost-based baseline and the
// push-down-only configuration: estimates come from whatever the supplied
// estimator's registry holds — ingestion statistics with independence
// assumptions for the former, push-down-refined statistics for the latter.
func PlanFull(est *Estimator, g *sqlpp.Graph, tables Tables, cfg AlgoConfig) (*plan.Node, error) {
	n := len(g.Aliases)
	if n == 0 {
		return nil, fmt.Errorf("core: empty FROM clause")
	}
	if n > 20 {
		return nil, fmt.Errorf("core: %d datasets exceed the DP enumerator's limit", n)
	}
	aliasIdx := map[string]int{}
	for i, a := range g.Aliases {
		aliasIdx[a] = i
	}
	best := make(map[uint32]*dpEntry, 1<<uint(n))

	// Leaves.
	for i, alias := range g.Aliases {
		info := tables[alias]
		if info == nil {
			return nil, fmt.Errorf("core: missing table info for %q", alias)
		}
		leaf := &plan.Leaf{
			Dataset:  info.Dataset,
			Alias:    alias,
			Filter:   info.Filter,
			Project:  info.Project,
			Filtered: info.Filtered,
		}
		if ds, ok := est.Cat.Get(info.Dataset); ok {
			leaf.Temp = ds.Temp
		}
		node := plan.NewLeaf(leaf)
		node.EstRows = info.EstRows
		best[1<<uint(i)] = &dpEntry{
			node: node, rows: info.EstRows, bytes: info.EstBytes,
			cost: 0, filtered: info.Filtered, leafAlias: alias,
		}
	}

	// connecting returns the aligned key lists joining subset a to subset b.
	connecting := func(a, b uint32) (lk, rk []string) {
		for _, e := range g.Joins {
			li, ri := aliasIdx[e.LeftAlias], aliasIdx[e.RightAlias]
			switch {
			case a&(1<<uint(li)) != 0 && b&(1<<uint(ri)) != 0:
				for i := range e.LeftFields {
					lk = append(lk, e.LeftAlias+"."+e.LeftFields[i])
					rk = append(rk, e.RightAlias+"."+e.RightFields[i])
				}
			case b&(1<<uint(li)) != 0 && a&(1<<uint(ri)) != 0:
				for i := range e.LeftFields {
					lk = append(lk, e.RightAlias+"."+e.RightFields[i])
					rk = append(rk, e.LeftAlias+"."+e.LeftFields[i])
				}
			}
		}
		return lk, rk
	}

	// resolve reads a side's qualified key from its owning alias's dataset
	// (an unknown alias has no statistics: the key counts as the rows).
	resolve := func(key string) (string, string) {
		alias, field := splitQualified(key)
		if info := tables[alias]; info != nil {
			return info.Dataset, field
		}
		return "", field
	}

	// dpInput adapts one side for the algorithm rule.
	dpInput := func(e *dpEntry, keys []string) algoInput {
		in := algoInput{estRows: e.rows, estBytes: e.bytes, filtered: e.filtered}
		if e.leafAlias != "" && len(keys) > 0 {
			info := tables[e.leafAlias]
			if info != nil && info.IsBase {
				if ds, ok := est.Cat.Get(info.Dataset); ok {
					_, field := splitQualified(keys[0])
					in.indexedBase = ds.HasIndex(field)
				}
			}
		}
		return in
	}

	full := uint32(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for s := uint32(1); s <= full; s++ {
			if bits.OnesCount32(s) != size {
				continue
			}
			for a := (s - 1) & s; a > 0; a = (a - 1) & s {
				b := s &^ a
				if a > b {
					continue // consider each unordered split once
				}
				ea, eb := best[a], best[b]
				if ea == nil || eb == nil {
					continue
				}
				lk, rk := connecting(a, b)
				if len(lk) == 0 {
					continue // cross product: not considered
				}
				du := est.KeyDistinct(ea.rows, lk, resolve)
				dv := est.KeyDistinct(eb.rows, rk, resolve)
				outRows := stats.JoinCardinality(ea.rows, eb.rows, du, dv)
				cost := ea.cost + eb.cost + float64(outRows)
				cur := best[s]
				if cur != nil && cur.cost <= cost {
					continue
				}
				algo, buildLeft := ChooseAlgo(cfg, dpInput(ea, lk), dpInput(eb, rk))
				node := plan.NewJoin(&plan.Join{
					Left: ea.node, Right: eb.node,
					LeftKeys: lk, RightKeys: rk,
					Algo: algo, BuildLeft: buildLeft,
				})
				node.EstRows = outRows
				width := int64(1)
				if ea.rows > 0 {
					width += ea.bytes / max(ea.rows, 1)
				}
				if eb.rows > 0 {
					width += eb.bytes / max(eb.rows, 1)
				}
				best[s] = &dpEntry{
					node: node, rows: outRows, bytes: outRows * width,
					cost: cost, filtered: true,
				}
			}
		}
	}
	e := best[full]
	if e == nil {
		return nil, fmt.Errorf("core: no connected plan covers all datasets")
	}
	return e.node, nil
}

// splitQualified splits alias.field at the first dot; a bare name has no
// alias.
func splitQualified(q string) (alias, field string) {
	if alias, field, ok := strings.Cut(q, "."); ok {
		return alias, field
	}
	return "", q
}
