// Package engine is the Hyracks-stand-in: partition-parallel physical
// operators over hash-partitioned relations. Operators within a stage are
// fused per partition (scan→filter→project, repartition→build→probe) and run
// on one goroutine per partition; stages break at exchanges and sinks. Every
// byte that would cross the simulated cluster's network or hit its disks is
// reported to the cluster cost accountant.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// Context carries everything a query execution needs. The Cluster, Catalog,
// and UDFs are shared by every query a DB serves; Acct, Scope, and Cancel
// are the per-query execution scope that keeps concurrent queries isolated.
type Context struct {
	Cluster *cluster.Cluster
	Catalog *catalog.Catalog
	UDFs    *expr.Registry
	Params  map[string]types.Value

	// Acct is the per-query cost accountant. When nil the cluster's
	// lifetime accountant is used (single-client and test contexts).
	Acct *cluster.Accounting
	// Scope namespaces this query's materialized intermediates
	// ("q<id>_"); empty means the shared "tmp_*" namespace.
	Scope string
	// Cancel carries the caller's cancellation signal; nil never cancels.
	// Operators check it at stage boundaries.
	Cancel context.Context
	// Spill manages this query's on-disk run files: the spill device.
	// SpillBudget is the one place that decides what attaching it means.
	Spill *storage.SpillManager
	// Grant is this query's reservation against the cluster memory governor.
	// Nil (single-client and test contexts) disables governance metering.
	Grant *cluster.Grant
	// ChunkRows is the pipeline's chunk capacity in rows. Zero or
	// negative selects defaultChunkRows; Open validates the configured value
	// once so every operator can trust chunkRows() > 0. Tests shrink it to
	// push chunk-boundary edge cases through the real configuration path.
	ChunkRows int
	// noVec is an in-package test hook: scans stop attaching column sources
	// to their chunks and predicates never compile to vector kernels, forcing
	// the row-at-a-time scalar fallbacks everywhere. Results and counters
	// must be identical either way; the engine's own tests set it to pin
	// that, nothing else can.
	noVec bool
	// Faults is the query's fault-injection registry (nil in production):
	// the engine-layer injection points — exchange sends and receives,
	// scan-cursor opens, probe drains, sink seals — fire against it.
	Faults *faults.Registry
	// PageStats observes this query's page-level scan work — reads, zone-map
	// prunes, cache traffic — when any scanned dataset is paged. Nil skips
	// observation. Deliberately outside the metered cost counters: paged and
	// resident runs charge identical Accounting figures, and these feed the
	// optimizer's access-path selection and the query's page metrics instead.
	PageStats *storage.PageScanStats
}

// Env builds an expression environment against a schema.
func (c *Context) Env(sch *types.Schema) *expr.Env {
	return &expr.Env{Schema: sch, Params: c.Params, UDFs: c.UDFs}
}

// Accounting returns the accountant execution work is metered against: the
// per-query one when set, else the cluster's lifetime accountant.
func (c *Context) Accounting() *cluster.Accounting {
	if c.Acct != nil {
		return c.Acct
	}
	return c.Cluster.Acct()
}

// TempName mints a catalog-unique name for a materialized intermediate
// inside this query's temp namespace.
func (c *Context) TempName(suffix string) string {
	return c.Catalog.NextTempName(catalog.TempPrefix(c.Scope) + suffix)
}

// Err reports the caller's cancellation state (nil when no deadline or
// cancel signal is attached).
func (c *Context) Err() error {
	if c.Cancel == nil {
		return nil
	}
	return c.Cancel.Err()
}

// SpillBudget is the per-node bytes of build rows a join may hold resident
// before it evicts to run files: the cluster's memory budget when a spill
// device is attached and the budget is positive, else 0. Zero means nothing
// touches the filesystem — an over-budget build side is charged from
// meterSpill's byte arithmetic instead (the paper-faithful simulated model).
// Every "is this run really spilling, and under what budget" question, in
// the engine and in the planners above it, is this call.
func (c *Context) SpillBudget() int64 {
	if c.Spill == nil {
		return 0
	}
	return max(c.Cluster.MemoryPerNodeBytes(), 0)
}

// Relation is a partitioned intermediate result flowing between operators.
type Relation struct {
	Schema *types.Schema   // qualified fields (alias.name)
	Parts  [][]types.Tuple // one slice per cluster node
	// PartCols are the column offsets the relation is currently
	// hash-partitioned on (in hash order), or nil when partitioning is
	// unknown/round-robin. Joins use it to skip redundant repartitioning,
	// matching the §3 hash-join description.
	PartCols []int

	// sizes caches encoded byte sizes: relations are immutable once their
	// Parts are filled, so sizes are computed at most once per relation
	// instead of once per metering site.
	sizes types.SizeCache
}

// RowCount returns total rows across partitions.
func (r *Relation) RowCount() int64 {
	var n int64
	for _, p := range r.Parts {
		n += int64(len(p))
	}
	return n
}

// ByteSize returns total encoded bytes across partitions, computed once and
// cached. Callers must not mutate Parts after the first call.
func (r *Relation) ByteSize() int64 { return r.sizes.Total(r.Parts) }

// PartBytes returns the encoded size of partition p, cached like ByteSize.
func (r *Relation) PartBytes(p int) int64 { return r.sizes.Part(r.Parts, p) }

// seedSizes installs sizes an operator already computed while building the
// relation (pass-through scans, exchanges), so the lazy pass never runs.
// Must be called before the relation escapes the constructing goroutine.
func (r *Relation) seedSizes(partBytes []int64, total int64) {
	r.sizes.Seed(partBytes, total)
}

// PartitionedOn reports whether the relation is hash-partitioned on exactly
// the given column offsets (order-sensitive: composite hashes are
// order-dependent).
func (r *Relation) PartitionedOn(cols []int) bool {
	if len(r.PartCols) == 0 || len(r.PartCols) != len(cols) {
		return false
	}
	for i := range cols {
		if r.PartCols[i] != cols[i] {
			return false
		}
	}
	return true
}

// forEachPart runs fn for every partition on a worker pool bounded by
// GOMAXPROCS and returns the lowest-partition error. Workers claim
// partitions in index order from a shared counter, so the pool is
// work-conserving under skew — a worker that finishes a small partition
// immediately claims the next pending one — and a 64-partition layout on a
// 1-core box runs one goroutine instead of 64. Every partition runs even
// when an earlier one fails (operators rely on all output slots being
// filled); the first error by partition index is returned, matching the
// previous goroutine-per-partition behavior.
func forEachPart(nparts int, fn func(p int) error) error {
	errs := make([]error, nparts)
	// Contain operator panics at the partition boundary: a panicking
	// partition goroutine becomes that partition's error instead of killing
	// the process. fn's own defers (channel closes, grant releases) run
	// during the unwind before recover fires, so the exchange-drain and
	// cleanup invariants hold on the panic path exactly as on the error
	// path.
	run := func(p int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = faults.FromPanic("partition", fmt.Sprintf("partition %d", p), v)
			}
		}()
		return fn(p)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > nparts {
		workers = nparts
	}
	if workers <= 1 {
		for p := 0; p < nparts; p++ {
			errs[p] = run(p)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					p := int(next.Add(1)) - 1
					if p >= nparts {
						return
					}
					errs[p] = run(p)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resolveKeys maps qualified key names to column offsets in a schema.
func resolveKeys(sch *types.Schema, keys []string) ([]int, error) {
	out := make([]int, len(keys))
	for i, k := range keys {
		idx, ok := sch.Index(k)
		if !ok {
			return nil, fmt.Errorf("engine: join key %q not found in %s", k, sch)
		}
		out[i] = idx
	}
	return out, nil
}
