package optimizer

import (
	"fmt"

	"dynopt/internal/core"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
)

// planWorst is the worst-order baseline's core.Planner: a right-deep plan
// that schedules joins in decreasing order of estimated result size, all
// hash joins, no broadcasts — the §7.2 adversarial baseline representing the
// least gain achievable by writing the FROM clause badly against
// AsterixDB's default behaviour. The algorithm rule is not consulted.
func planWorst(est *core.Estimator, g *sqlpp.Graph, tables core.Tables, _ core.AlgoConfig) (*plan.Node, error) {
	leaf := func(alias string) *plan.Node {
		info := tables[alias]
		n := plan.NewLeaf(&plan.Leaf{
			Dataset:  info.Dataset,
			Alias:    alias,
			Filter:   info.Filter,
			Project:  info.Project,
			Filtered: info.Filtered,
		})
		n.EstRows = info.EstRows
		return n
	}
	if len(g.Aliases) == 1 {
		return leaf(g.Aliases[0]), nil
	}

	// First join: the edge with the largest estimated result.
	var first *sqlpp.JoinEdge
	var firstCard int64
	for _, e := range g.Joins {
		card, err := est.JoinEstimate(e, tables)
		if err != nil {
			return nil, err
		}
		if first == nil || card > firstCard {
			first, firstCard = e, card
		}
	}
	if first == nil {
		return nil, fmt.Errorf("optimizer: no join edges")
	}

	covered := map[string]bool{first.LeftAlias: true, first.RightAlias: true}
	cur := plan.NewJoin(&plan.Join{
		Left:      leaf(first.LeftAlias),
		Right:     leaf(first.RightAlias),
		LeftKeys:  qualify(first.LeftAlias, first.LeftFields),
		RightKeys: qualify(first.RightAlias, first.RightFields),
		Algo:      plan.AlgoHash,
		BuildLeft: true,
	})
	cur.EstRows = firstCard
	curRows := firstCard

	for len(covered) < len(g.Aliases) {
		// Among edges reaching a new alias, pick the one maximizing the
		// estimated result of joining it with the current intermediate.
		var bestEdge *sqlpp.JoinEdge
		var bestAlias string
		var bestCard int64
		for _, e := range g.Joins {
			var newAlias string
			switch {
			case covered[e.LeftAlias] && !covered[e.RightAlias]:
				newAlias = e.RightAlias
			case covered[e.RightAlias] && !covered[e.LeftAlias]:
				newAlias = e.LeftAlias
			default:
				continue
			}
			info, curInfo := tables[newAlias], tables[e.Other(newAlias)]
			// Formula (1) over the edge keys, the current side at the
			// intermediate's rows.
			curKeys, newKeys := e.RightFields, e.LeftFields
			if newAlias == e.RightAlias {
				curKeys, newKeys = e.LeftFields, e.RightFields
			}
			card := stats.JoinCardinality(curRows, info.EstRows,
				est.KeyDistinct(curRows, curKeys, func(f string) (string, string) { return curInfo.Dataset, f }),
				est.KeyDistinct(info.EstRows, newKeys, func(f string) (string, string) { return info.Dataset, f }))
			if bestEdge == nil || card > bestCard {
				bestEdge, bestAlias, bestCard = e, newAlias, card
			}
		}
		if bestEdge == nil {
			return nil, fmt.Errorf("optimizer: join graph disconnected during worst-order planning")
		}
		var curKeys, newKeys []string
		if bestAlias == bestEdge.RightAlias {
			curKeys = qualify(bestEdge.LeftAlias, bestEdge.LeftFields)
			newKeys = qualify(bestEdge.RightAlias, bestEdge.RightFields)
		} else {
			curKeys = qualify(bestEdge.RightAlias, bestEdge.RightFields)
			newKeys = qualify(bestEdge.LeftAlias, bestEdge.LeftFields)
		}
		next := plan.NewJoin(&plan.Join{
			Left:      leaf(bestAlias),
			Right:     cur,
			LeftKeys:  newKeys,
			RightKeys: curKeys,
			Algo:      plan.AlgoHash,
			BuildLeft: true,
		})
		next.EstRows = bestCard
		cur = next
		curRows = bestCard
		covered[bestAlias] = true
	}
	return cur, nil
}

func qualify(alias string, fields []string) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = alias + "." + f
	}
	return out
}
