// Package bench regenerates every table and figure of the paper's
// evaluation (§7): the overhead decomposition of Figure 6, the six-strategy
// execution-time comparisons of Figure 7, the indexed-nested-loop variant of
// Figure 8, and the average-improvement ratios of Table 1.
//
// Scale factors are row multipliers; SF 1/5/25 stand in for the paper's
// 10/100/1000 GB datasets. Reported "sim" seconds price the metered work
// (shuffles, broadcasts, materialization I/O, probes, index lookups,
// re-optimization latency) on the simulated shared-nothing cluster; wall
// time is measured by benchmark/ (its adhoc workload is Figure 7 on the
// clock, with variance). Shape — who wins, by what factor, where broadcasts
// stop — is the reproduction target, not absolute numbers.
package bench

import (
	"fmt"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/optimizer"
	"dynopt/internal/storage"
	"dynopt/internal/tpcds"
	"dynopt/internal/tpch"
	"dynopt/internal/types"
)

// Query names the four evaluation queries.
type Query struct {
	Name     string // "Q17", "Q50", "Q8", "Q9"
	Workload string // "tpcds" or "tpch"
	SQL      string
}

// Queries returns the paper's four evaluation queries in its reporting
// order.
func Queries() []Query {
	return []Query{
		{Name: "Q17", Workload: "tpcds", SQL: tpcds.Q17()},
		{Name: "Q50", Workload: "tpcds", SQL: tpcds.Q50()},
		{Name: "Q8", Workload: "tpch", SQL: tpch.Q8()},
		{Name: "Q9", Workload: "tpch", SQL: tpch.Q9()},
	}
}

// Env is one loaded workload instance reused across strategy runs: each run
// clones the base catalog onto a fresh cluster so metering is isolated and
// temps never leak.
type Env struct {
	nodes   int
	base    *catalog.Catalog
	udfs    *expr.Registry
	indexed bool
}

// NewEnv loads both workloads at sf on an n-node layout. withIndexes adds
// the Figure 8 secondary indexes.
func NewEnv(sf, nodes int, withIndexes bool) (*Env, error) {
	e := &Env{nodes: nodes, udfs: expr.NewRegistry(), indexed: withIndexes}
	ctx := &engine.Context{
		Cluster: cluster.New(nodes),
		Catalog: catalog.New(),
		UDFs:    e.udfs,
		Params:  map[string]types.Value{},
	}
	if _, err := tpch.Load(ctx, sf); err != nil {
		return nil, err
	}
	if _, err := tpcds.Load(ctx, sf); err != nil {
		return nil, err
	}
	if withIndexes {
		if err := tpch.BuildIndexes(ctx); err != nil {
			return nil, err
		}
		if err := tpcds.BuildIndexes(ctx); err != nil {
			return nil, err
		}
	}
	e.base = ctx.Catalog
	return e, nil
}

// ConvertPaged rewrites every base dataset into disk-native paged form
// under dir and reattaches the catalog to the page files through one shared
// page cache of cacheBytes (0 = uncached). Fresh contexts scan pages from
// then on; secondary indexes are rebuilt from the persisted sidecars. The
// paged-vs-resident equivalence suite uses this to run the identical
// workload against both storage layouts. reg, when non-nil, wires fault
// injection into every page file the conversion opens (the paged corruption
// chaos suite arms page.corrupt through it).
func (e *Env) ConvertPaged(dir string, rowsPerPage int, cacheBytes int64, reg *faults.Registry) error {
	var cache *storage.PageCache
	if cacheBytes > 0 {
		cache = storage.NewPageCache(cacheBytes)
	}
	for _, name := range e.base.BaseNames() {
		ds, ok := e.base.Get(name)
		if !ok {
			return fmt.Errorf("bench: dataset %q vanished during paging", name)
		}
		st := e.base.Stats().Get(name)
		if err := storage.WritePaged(dir, ds, st, rowsPerPage); err != nil {
			return err
		}
		pds, pst, err := storage.OpenPaged(dir, name, cache, reg)
		if err != nil {
			return err
		}
		if pst == nil {
			pst = st
		}
		if err := e.base.Register(pds, pst); err != nil {
			return err
		}
	}
	return nil
}

// DatasetBytes sums the byte sizes of every base dataset — what the
// equivalence suite sizes its fractional page-cache budgets against.
func (e *Env) DatasetBytes() int64 {
	var total int64
	for _, name := range e.base.BaseNames() {
		if ds, ok := e.base.Get(name); ok {
			total += ds.ByteSize()
		}
	}
	return total
}

// Fresh returns an isolated execution context over the loaded data.
func (e *Env) Fresh() *engine.Context {
	return &engine.Context{
		Cluster:   cluster.New(e.nodes),
		Catalog:   e.base.CloneBases(),
		UDFs:      e.udfs,
		Params:    map[string]types.Value{},
		PageStats: &storage.PageScanStats{},
	}
}

// algoConfig returns the experiment's algorithm rule configuration.
func (e *Env) algoConfig() core.AlgoConfig {
	cfg := core.DefaultAlgoConfig()
	cfg.EnableINLJ = e.indexed
	return cfg
}

// Strategies builds the six §7.2 strategies under the experiment's
// algorithm configuration.
func (e *Env) Strategies() []core.Strategy {
	algo := e.algoConfig()
	dynCfg := core.DefaultConfig()
	dynCfg.Algo = algo
	pilotCfg := dynCfg
	pilotCfg.PushDown = false
	return []core.Strategy{
		&core.Dynamic{Cfg: dynCfg},
		&optimizer.CostBased{Cfg: algo},
		&optimizer.BestOrder{Cfg: dynCfg},
		optimizer.NewWorstOrder(),
		&optimizer.PilotRun{Cfg: pilotCfg, SampleK: optimizer.DefaultPilotSampleK},
		&optimizer.IngresLike{Cfg: algo},
	}
}

// RunOne executes one strategy over a fresh context.
func (e *Env) RunOne(s core.Strategy, sql string) (*core.Report, error) {
	_, rep, err := e.RunOneResult(s, sql)
	return rep, err
}

// RunOneResult executes one strategy over a fresh context and also returns
// the query result (the equivalence tests compare rows across modes).
func (e *Env) RunOneResult(s core.Strategy, sql string) (*engine.Result, *core.Report, error) {
	ctx := e.Fresh()
	res, rep, err := s.Run(ctx, sql)
	if err != nil {
		return res, rep, fmt.Errorf("bench: %s: %w", s.Name(), err)
	}
	return res, rep, nil
}
