package dynopt

import (
	"runtime"

	"dynopt/internal/tpcds"
	"dynopt/internal/tpch"
)

// collectLoadGarbage runs one collection at the end of a bulk load. The
// loaders generate each table whole and CreateDataset copies it, so for the
// length of one load there are two copies of a table in memory; when the
// collector happens to mark during that window (it usually does: the copy is
// the allocation burst that starts a cycle) it sizes its next heap goal for
// both, and the generator's dead rows of the last, largest tables then sit
// under the first queries until the heap has doubled. Collecting once here
// costs one mark of the loaded data and sets the goal from what is live.
func collectLoadGarbage() { runtime.GC() }

// LoadTPCH generates and loads the TPC-H table subset (lineitem, orders,
// customer, part, supplier, partsupp, nation, region) at a row-multiplier
// scale factor. Returns the lineitem row count.
func LoadTPCH(db *DB, sf int) (int64, error) {
	sz, err := tpch.Load(db.ctx, sf)
	if err != nil {
		return 0, err
	}
	collectLoadGarbage()
	return int64(sz.Lineitem), nil
}

// CreateTPCHIndexes adds the secondary indexes the paper's Figure 8
// experiments assume for TPC-H (lineitem foreign keys).
func CreateTPCHIndexes(db *DB) error { return tpch.BuildIndexes(db.ctx) }

// TPCHQ8 returns the paper's modified TPC-H query 8 (correlated predicates
// on orders).
func TPCHQ8() string { return tpch.Q8() }

// TPCHQ9 returns the paper's modified TPC-H query 9 (UDF predicates).
func TPCHQ9() string { return tpch.Q9() }

// LoadTPCDS generates and loads the TPC-DS table subset (store_sales,
// store_returns, catalog_sales, date_dim, store, item) at a row-multiplier
// scale factor. Returns the store_sales row count.
func LoadTPCDS(db *DB, sf int) (int64, error) {
	sz, err := tpcds.Load(db.ctx, sf)
	if err != nil {
		return 0, err
	}
	collectLoadGarbage()
	return int64(sz.StoreSales), nil
}

// CreateTPCDSIndexes adds the secondary indexes the paper's Figure 8
// experiments assume for TPC-DS (fact-table date keys).
func CreateTPCDSIndexes(db *DB) error { return tpcds.BuildIndexes(db.ctx) }

// TPCDSQ17 returns the paper's TPC-DS query 17 (three fact tables, three
// filtered date dimensions).
func TPCDSQ17() string { return tpcds.Q17() }

// TPCDSQ50 returns the paper's TPC-DS query 50 (parameterized date
// predicates via myrand).
func TPCDSQ50() string { return tpcds.Q50() }

// TPCDSQ17P returns the serving variant of Q17: the first date dimension's
// filter takes $moy/$year parameters, so repeated executions with rotating
// bindings share one plan-memo shape.
func TPCDSQ17P() string { return tpcds.Q17P() }

// TPCDSQ50P returns the serving variant of Q50: $moy/$year parameters in
// place of the myrand predicates.
func TPCDSQ50P() string { return tpcds.Q50P() }

// TPCHQ8P returns the serving variant of Q8: $region/$status parameters in
// place of the region-name and order-status literals.
func TPCHQ8P() string { return tpch.Q8P() }
