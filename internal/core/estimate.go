// Package core implements the paper's primary contribution: the runtime
// dynamic optimization of Algorithm 1. It contains the cardinality
// estimator built on formula (1), the join-algorithm rule of §6.1.2, the
// stage executor (Job Construction), the query-reconstruction loop, and the
// Dynamic strategy tying them together. Baseline strategies in
// internal/optimizer reuse these pieces.
package core

import (
	"fmt"
	"slices"

	"dynopt/internal/catalog"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
	"dynopt/internal/storage"
)

// TableInfo is the planner's view of one FROM-clause alias in the current
// (possibly reconstructed) query: where its data lives, what predicates
// remain unexecuted, what columns the rest of the query needs, and the size
// estimate derived from the freshest statistics available.
type TableInfo struct {
	Alias    string
	Dataset  string    // catalog name (base or temp)
	Filter   expr.Expr // remaining local predicates (nil if none)
	Project  []string  // bare column names to retain on scan (nil = all)
	IsBase   bool      // not a materialized intermediate
	Filtered bool      // local predicates exist or were pre-executed
	EstRows  int64
	EstBytes int64
	// Pages is the real physical page count of the dataset's paged backend
	// (0 for resident datasets and intermediates). Unlike EstRows/EstBytes it
	// is not an estimate: the storage directory knows exactly how many pages
	// a full scan reads, which is what access-path selection compares a
	// binding set against.
	Pages int64
}

// Tables indexes TableInfo by alias.
type Tables map[string]*TableInfo

// Estimator derives cardinalities from a statistics registry. The same code
// serves every strategy: accuracy differences come purely from the state of
// the registry (executed-predicate temps carry exact counts; static
// strategies see only ingestion-time base statistics and fall back to
// independence assumptions and Selinger defaults inside StaticSelectivity).
type Estimator struct {
	Cat *catalog.Catalog
	Reg *stats.Registry
	// FiltersPreApplied signals that registry statistics already reflect
	// local predicates (pilot-run samples apply them during sampling), so
	// TableEstimate must not scale by filter selectivity again.
	FiltersPreApplied bool
}

// TableEstimate sizes one alias: registry row count scaled by the estimated
// selectivity of its remaining filter.
func (e *Estimator) TableEstimate(dataset string, filter expr.Expr) (rows, bytes int64, err error) {
	st := e.Reg.Get(dataset)
	if st == nil {
		return 0, 0, fmt.Errorf("core: no statistics for dataset %q", dataset)
	}
	rows = st.RecordCount
	if filter != nil && !e.FiltersPreApplied {
		sel := expr.StaticSelectivity(filter, st)
		rows = int64(float64(rows) * sel)
		if rows < 1 && st.RecordCount > 0 {
			rows = 1
		}
	}
	return rows, rows * st.AvgRowBytes(), nil
}

// fieldDistinct returns the distinct-count estimate for one join-key field,
// capped at the post-filter row estimate. Falls back to the row count (key
// assumption) when the field has no sketch — e.g. when online statistics
// were disabled for an intermediate.
func (e *Estimator) FieldDistinct(dataset, field string, estRows int64) int64 {
	st := e.Reg.Get(dataset)
	if st == nil {
		return estRows
	}
	fs, ok := st.Fields[field]
	if !ok || fs.Count == 0 {
		return estRows
	}
	d := fs.DistinctCount()
	if estRows > 0 && d > estRows {
		d = estRows
	}
	if d < 1 {
		d = 1
	}
	return d
}

// JoinEstimate applies formula (1) to one join edge given the current table
// states: |A ⋈k B| = S(A)·S(B)/max(U(A.k), U(B.k)), generalized to composite
// keys via the capped distinct product.
func (e *Estimator) JoinEstimate(edge *sqlpp.JoinEdge, tables Tables) (int64, error) {
	lt, ok := tables[edge.LeftAlias]
	if !ok {
		return 0, fmt.Errorf("core: unknown alias %q in join estimate", edge.LeftAlias)
	}
	rt, ok := tables[edge.RightAlias]
	if !ok {
		return 0, fmt.Errorf("core: unknown alias %q in join estimate", edge.RightAlias)
	}
	du := e.KeyDistinct(lt.EstRows, edge.LeftFields, func(f string) (string, string) { return lt.Dataset, f })
	dv := e.KeyDistinct(rt.EstRows, edge.RightFields, func(f string) (string, string) { return rt.Dataset, f })
	return stats.JoinCardinality(lt.EstRows, rt.EstRows, du, dv), nil
}

// KeyDistinct is formula (1)'s U for one side of a join: the composite
// distinct count of the side's keys, where resolve names the dataset and
// field each key is read from and every per-key count is capped at the
// side's rows. Every planner prices a join side through it.
func (e *Estimator) KeyDistinct(rows int64, keys []string, resolve func(key string) (dataset, field string)) int64 {
	ds := make([]int64, len(keys))
	for i, k := range keys {
		dataset, field := resolve(k)
		ds[i] = e.FieldDistinct(dataset, field, rows)
	}
	return stats.CompositeDistinct(rows, ds)
}

// BuildTables assembles the planner's table states for the current query
// graph, estimating every alias from the freshest registry statistics.
func BuildTables(est *Estimator, g *sqlpp.Graph, need map[string]map[string]bool, selectStar bool) (Tables, error) {
	tables := Tables{}
	for _, alias := range g.Aliases {
		ref := g.Tables[alias]
		ds, ok := est.Cat.Get(ref.Dataset)
		if !ok {
			return nil, fmt.Errorf("core: dataset %q not in catalog", ref.Dataset)
		}
		filter := engine.FilterFor(g.Locals[alias])
		rows, bytes, err := est.TableEstimate(ref.Dataset, filter)
		if err != nil {
			return nil, err
		}
		info := &TableInfo{
			Alias:    alias,
			Dataset:  ref.Dataset,
			Filter:   filter,
			IsBase:   !ds.Temp,
			Filtered: filter != nil || ds.Temp,
			EstRows:  rows,
			EstBytes: bytes,
		}
		if pgd := ds.Paged(); pgd != nil {
			info.Pages = int64(pgd.TotalPages())
		}
		if !selectStar {
			if cols, ok := need[alias]; ok {
				for col := range cols {
					info.Project = append(info.Project, col)
				}
				slices.Sort(info.Project)
			}
		}
		tables[alias] = info
	}
	return tables, nil
}

// datasetOf fetches the storage dataset behind a table state.
func datasetOf(cat *catalog.Catalog, info *TableInfo) (*storage.Dataset, error) {
	ds, ok := cat.Get(info.Dataset)
	if !ok {
		return nil, fmt.Errorf("core: dataset %q vanished from catalog", info.Dataset)
	}
	return ds, nil
}
