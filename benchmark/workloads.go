package main

import (
	"fmt"
	"sort"
	"strings"

	"dynopt"
)

// op is one query execution of a workload's fixed op list.
type op struct {
	// Name identifies the op in samples and spans: subject + "/" + strategy.
	Name string
	// Query is the digest key: the statement and its bindings, independent of
	// strategy and access path, because every plan must return the same rows.
	Query string
	// Subject is Query plus the access-path switch: the unit the fidelity and
	// cost-based reference passes cover.
	Subject  string
	SQL      string
	Strategy dynopt.Strategy
	Params   map[string]dynopt.Value
	INLJ     bool
}

func (o op) options() *dynopt.QueryOptions {
	opts := &dynopt.QueryOptions{Strategy: o.Strategy, Params: o.Params}
	if o.INLJ {
		on := true
		opts.EnableINLJ = &on
	}
	return opts
}

func (o op) with(s dynopt.Strategy) op {
	o.Strategy = s
	o.Name = o.Subject + "/" + string(s)
	return o
}

// workload is one fixed configuration and op list. The names are referred to
// by later issues; see README.md for why each exists.
type workload struct {
	Name string
	SF   int
	// Config builds the DB configuration; dir is a fresh directory inside
	// the benchmark's scratch space for spill runs or page files.
	Config  func(dir string) dynopt.Config
	Indexes bool // build the Figure 8 secondary indexes
	Paged   bool // convert every dataset to page files after loading
	Ops     []op
}

const benchNodes = 10

var allStrategies = []dynopt.Strategy{
	dynopt.StrategyDynamic, dynopt.StrategyCostBased, dynopt.StrategyPilotRun,
	dynopt.StrategyIngres, dynopt.StrategyBestOrder, dynopt.StrategyWorstOrder,
}

func baseQueries() []op {
	mk := func(name, sql string) op { return op{Query: name, Subject: name, SQL: sql} }
	return []op{
		mk("Q17", dynopt.TPCDSQ17()), mk("Q50", dynopt.TPCDSQ50()),
		mk("Q8", dynopt.TPCHQ8()), mk("Q9", dynopt.TPCHQ9()),
	}
}

func cross(queries []op, strategies ...dynopt.Strategy) []op {
	var out []op
	for _, q := range queries {
		for _, s := range strategies {
			out = append(out, q.with(s))
		}
	}
	return out
}

// serveBindings are the 17 fixed bindings of internal/bench/serve.go: each
// shape's rotation stays inside one workload regime, so a correct memo never
// needs to fall back.
func serveBindings() []op {
	var out []op
	add := func(shape, sql string, params map[string]dynopt.Value) {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + params[k].String()
		}
		name := shape + "[" + strings.Join(parts, ",") + "]"
		out = append(out, op{Query: name, Subject: name, SQL: sql, Params: params})
	}
	for year := int64(1998); year <= 2000; year++ {
		for moy := int64(8); moy <= 10; moy++ {
			add("Q50P", dynopt.TPCDSQ50P(), map[string]dynopt.Value{"moy": dynopt.Int(moy), "year": dynopt.Int(year)})
		}
	}
	for moy := int64(3); moy <= 6; moy++ {
		add("Q17P", dynopt.TPCDSQ17P(), map[string]dynopt.Value{"moy": dynopt.Int(moy), "year": dynopt.Int(2001)})
	}
	for _, region := range []string{"ASIA", "AMERICA", "EUROPE", "AFRICA"} {
		add("Q8P", dynopt.TPCHQ8P(), map[string]dynopt.Value{"region": dynopt.Str(region), "status": dynopt.Str("F")})
	}
	return out
}

// spillBudgetBytes is the per-node join memory of the spill workload. At the
// default 512 KiB, and down to 16 KiB, nothing spills at sf 50 because the
// algorithm rule routes around it; 4 KiB spills about 6.5 MB per query.
const spillBudgetBytes = 4096

func workloads() []workload {
	seek := baseQueries()
	for i := range seek {
		seek[i].INLJ = true
		seek[i].Subject += "+inlj"
	}
	return []workload{
		{
			Name: "adhoc", SF: 50,
			Config: func(string) dynopt.Config { return dynopt.Config{Nodes: benchNodes} },
			// worst-order is 40 % of a round's wall and a strawman: it runs
			// in the fidelity pass only.
			Ops: cross(baseQueries(), allStrategies[:5]...),
		},
		{
			Name: "serve", SF: 50,
			Config: func(string) dynopt.Config { return dynopt.Config{Nodes: benchNodes, PlanCacheEntries: 64} },
			Ops:    cross(serveBindings(), dynopt.StrategyDynamic),
		},
		{
			Name: "spill", SF: 50,
			Config: func(dir string) dynopt.Config {
				return dynopt.Config{Nodes: benchNodes, SpillDir: dir, MemoryPerNodeBytes: spillBudgetBytes}
			},
			Ops: cross(baseQueries(), dynopt.StrategyDynamic, dynopt.StrategyCostBased),
		},
		{
			Name: "paged", SF: 25, Indexes: true, Paged: true,
			Config: func(dir string) dynopt.Config { return dynopt.Config{Nodes: benchNodes, DataDir: dir} },
			Ops:    append(cross(baseQueries(), dynopt.StrategyDynamic), cross(seek, dynopt.StrategyDynamic)...),
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// subjects returns the distinct subjects of the op list in first-seen order,
// as strategy-less ops.
func (w workload) subjects() []op {
	seen := map[string]bool{}
	var out []op
	for _, o := range w.Ops {
		if !seen[o.Subject] {
			seen[o.Subject] = true
			out = append(out, o)
		}
	}
	return out
}

// setup opens a DB and loads it the way a user of this workload would: Open,
// both generators, indexes, page conversion.
func (w workload) setup(dir string, sf int) (*dynopt.DB, error) {
	db := dynopt.Open(w.Config(dir))
	if _, err := dynopt.LoadTPCDS(db, sf); err != nil {
		return nil, err
	}
	if _, err := dynopt.LoadTPCH(db, sf); err != nil {
		return nil, err
	}
	if w.Indexes {
		if err := dynopt.CreateTPCDSIndexes(db); err != nil {
			return nil, err
		}
		if err := dynopt.CreateTPCHIndexes(db); err != nil {
			return nil, err
		}
	}
	if w.Paged {
		for _, name := range db.Datasets() {
			if err := db.ConvertToPaged(name, 0); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
