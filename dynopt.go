// Package dynopt is a reproduction of "Revisiting Runtime Dynamic
// Optimization for Join Queries in Big Data Management Systems"
// (Pavlopoulou, Carey, Tsotras — EDBT 2022) as a self-contained Go library:
// a simulated shared-nothing BDMS with partitioned storage, a statistics
// framework (Greenwald-Khanna quantiles + HyperLogLog), three physical join
// algorithms, and six optimizer strategies — the paper's runtime dynamic
// optimization plus the five baselines its evaluation compares against.
//
// Quick start:
//
//	db := dynopt.Open(dynopt.Config{Nodes: 4})
//	db.CreateDataset("users", dynopt.NewSchema(
//	    dynopt.F("id", dynopt.KindInt), dynopt.F("city", dynopt.KindString),
//	), []string{"id"}, rows)
//	res, err := db.Query(sqlText, nil)
//
// Every query execution reports the physical plan it ran (in the paper's
// ⋈/⋈b/⋈i notation), the blocking re-optimization points crossed, and the
// work metered against the simulated cluster's cost model.
package dynopt

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/memo"
	"dynopt/internal/optimizer"
	"dynopt/internal/sqlpp"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// Re-exported value primitives so callers build rows and UDFs without
// touching internal packages.
type (
	// Value is one SQL value (tagged union).
	Value = types.Value
	// Kind enumerates value kinds.
	Kind = types.Kind
	// Tuple is one row of values.
	Tuple = types.Tuple
	// Schema describes a dataset's columns.
	Schema = types.Schema
	// Field is one schema column.
	Field = types.Field
	// Snapshot holds the metered cost counters of one query run.
	Snapshot = cluster.Snapshot
)

// Value kind constants.
const (
	KindNull   = types.KindNull
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = types.Int
	// Float builds a floating-point value.
	Float = types.Float
	// Str builds a string value.
	Str = types.Str
	// Bool builds a boolean value.
	Bool = types.Bool
	// Null builds the NULL value.
	Null = types.Null
)

// F is shorthand for a schema field.
func F(name string, kind Kind) Field { return Field{Name: name, Kind: kind} }

// The failure taxonomy (re-exported from the internal faults package so
// callers classify with errors.Is against dynopt names). See the README's
// "Failure model" section.
var (
	// ErrTransient marks failures that may not recur; Config.Retry re-runs
	// queries whose error chains carry it.
	ErrTransient = faults.ErrTransient
	// ErrSpillIO marks spill-device I/O failures (transient).
	ErrSpillIO = faults.ErrSpillIO
	// ErrCorrupt marks spill data that failed integrity verification on
	// read-back — checksum mismatch, bad framing, truncation, or counts
	// disagreeing with the run's footer seal — after any rebuild attempt
	// also failed or recurred. Wraps ErrTransient.
	ErrCorrupt = faults.ErrCorrupt
	// ErrDiskFull marks spill writes refused by a full device (ENOSPC or a
	// short write). Wraps ErrSpillIO.
	ErrDiskFull = faults.ErrDiskFull
	// ErrAdmission marks a query that timed out or was cancelled while
	// queued for an admission slot; nothing was executed.
	ErrAdmission = faults.ErrAdmission
	// ErrOverCapacity marks a query the memory governor refused with no
	// degraded path able to absorb the shortfall.
	ErrOverCapacity = faults.ErrOverCapacity
)

// QueryError is the structured failure of one query execution: the pipeline
// stage and operator that failed, whether it was a contained panic (with
// the recovered stack), and the underlying cause, unwrappable to the
// sentinel taxonomy. Retrieve with errors.As.
type QueryError = faults.QueryError

// FaultRegistry is the deterministic fault-injection registry armed through
// Config.Faults (test-only; see internal/faults for rules and triggers).
type FaultRegistry = faults.Registry

// FaultRule arms one injection point on a FaultRegistry.
type FaultRule = faults.Rule

// CorruptKind selects the on-disk mutation a FaultRule applies to a sealed
// spill run at the "spill.corrupt" point (test-only corruption injection).
type CorruptKind = faults.CorruptKind

const (
	CorruptFlipBit      = faults.CorruptFlipBit
	CorruptTruncateTail = faults.CorruptTruncateTail
	CorruptTornWrite    = faults.CorruptTornWrite
)

// NewFaultRegistry returns a registry whose probabilistic triggers draw
// from seed. Arm rules on it and pass it as Config.Faults.
func NewFaultRegistry(seed int64) *FaultRegistry { return faults.New(seed) }

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return types.NewSchema(fields...) }

// Strategy selects the optimizer a query runs under.
type Strategy string

// The six strategies of the paper's evaluation (§7.2).
const (
	// StrategyDynamic is the paper's runtime dynamic optimization
	// (Algorithm 1): predicate push-down, per-stage re-optimization with
	// online statistics, greedy cheapest-next-join planning.
	StrategyDynamic Strategy = "dynamic"
	// StrategyCostBased is traditional static cost-based optimization from
	// ingestion-time statistics.
	StrategyCostBased Strategy = "cost-based"
	// StrategyBestOrder executes the optimal plan in one pipelined job (the
	// user-knows-best baseline).
	StrategyBestOrder Strategy = "best-order"
	// StrategyWorstOrder executes a right-deep decreasing-result-size plan
	// with hash joins only.
	StrategyWorstOrder Strategy = "worst-order"
	// StrategyPilotRun estimates initial statistics from LIMIT-k sample
	// queries, then adapts.
	StrategyPilotRun Strategy = "pilot-run"
	// StrategyIngres is the original INGRES decomposition: cardinalities
	// only.
	StrategyIngres Strategy = "ingres-like"
)

// Config configures a DB instance.
type Config struct {
	// Nodes is the simulated shared-nothing cluster size (default 4).
	Nodes int
	// BroadcastThresholdBytes caps the size of a join input that may be
	// replicated to every node (default 128 KiB).
	BroadcastThresholdBytes int64
	// EnableINLJ allows indexed nested-loop joins where secondary indexes
	// exist (default off, as in the paper's Figure 7 runs).
	EnableINLJ bool
	// ReoptBudget bounds the number of blocking re-optimization points per
	// query for the dynamic strategy; when exhausted the remainder is
	// planned statically from the statistics gathered so far (the §8
	// trade-off). 0 means unlimited.
	ReoptBudget int
	// MaxConcurrentQueries caps how many queries execute at once; further
	// Query/QueryCtx calls block for a slot (admission control), or return
	// early when their context is cancelled while waiting. 0 means
	// unlimited.
	MaxConcurrentQueries int
	// SpillDir enables real memory governance: hash joins hold at most
	// MemoryPerNodeBytes of build rows resident per node, evicting overflow
	// partitions to run files under this directory (one temp subdirectory
	// per query, created lazily on first spill and removed on every query
	// exit path), and SpillBytes/SpillRows meter the actual run-file I/O.
	// Empty (the default) keeps the simulated spill model: counters are
	// charged from byte arithmetic and nothing touches the filesystem.
	SpillDir string
	// SpillSync fsyncs every sealed run file (real-spill mode only): the
	// durability knob for spill devices with volatile write caches. Off by
	// default — run files never outlive their query, so the cost usually
	// buys nothing.
	SpillSync bool
	// MemoryPerNodeBytes overrides the per-node join-memory budget
	// (default 512 KiB; negative disables the budget entirely).
	MemoryPerNodeBytes int64
	// DataDir enables disk-native columnar storage: datasets converted with
	// ConvertToPaged (or cmd/datagen -pages) live here as sealed page files
	// with zone-mapped directories, statistics sidecars, and persisted
	// secondary indexes, opened with AttachPaged. Scans over paged datasets
	// read lazily through the page cache with zone-map pruning and
	// projection/predicate pushdown; in-memory datasets are unaffected.
	// Empty (the default) keeps everything resident.
	DataDir string
	// ChunkRows sets the streaming pipeline's chunk capacity in rows — the
	// batch size every cursor, exchange buffer, and vectorized predicate
	// kernel works in. Validated at Open: zero or negative selects the
	// default (1024). Smaller values shrink the resident working set of a
	// stage (O(nodes² × ChunkRows) tuple headers) at the cost of more
	// per-chunk overhead; results are identical at any value.
	ChunkRows int
	// PlanCacheEntries enables the adaptive plan memo with a bounded LRU of
	// this many canonical query shapes. The dynamic strategy records what
	// its re-optimization loop converged to — join order, per-join
	// algorithm, push-downs, statistics fingerprint, per-stage observed
	// cardinalities — and repeated executions of the same shape (same
	// statement, different literals or $param bindings) replay the
	// remembered plan as pipelined stages with zero blocking
	// re-optimization points, falling back mid-query to the dynamic loop
	// whenever a stage's observed cardinality leaves the tolerance band.
	// 0 (the default) disables the memo: execution is byte-identical to
	// the paper's loop.
	PlanCacheEntries int
	// Faults arms the test-only fault-injection registry: named points in
	// the spill, governor, exchange, catalog, and memo layers fire the rules
	// armed on it. Nil (production, the default) leaves every injection site
	// a single nil check with zero allocations.
	Faults *FaultRegistry
	// Retry re-runs queries whose failures are classified transient
	// (errors.Is(err, ErrTransient)). Safe by construction: every attempt's
	// side effects — temp datasets, spill files, memory reservations — are
	// swept on its exit path before the next attempt starts.
	Retry RetryPolicy
}

// RetryPolicy configures transient-failure retry for Config.Retry.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per query; <= 1 disables retry.
	MaxAttempts int
	// BaseBackoff is the sleep before the second attempt, doubling per
	// attempt; 0 retries immediately.
	BaseBackoff time.Duration
	// Jitter in (0, 1] randomizes each backoff by ±Jitter of its value.
	Jitter float64
}

// backoff returns the sleep after a failed attempt (1-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff << (attempt - 1)
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*rand.Float64()-1)))
	}
	return d
}

// DB is one simulated BDMS instance: a cluster, a catalog, and a UDF
// registry.
//
// Concurrency: Query, QueryCtx, Explain, SetParam, and Datasets are safe
// for concurrent use — each query runs in its own execution scope (private
// cost accountant, private temp-dataset namespace swept even on error or
// panic) against the shared, internally synchronized catalog, whose base
// datasets are immutable once loaded. Load the data first: CreateDataset,
// CreateIndex, and RegisterUDF belong to the loading phase and must not
// race with in-flight queries over the same names.
type DB struct {
	ctx         *engine.Context // loading-phase context (shared cluster/catalog/UDFs)
	algo        core.AlgoConfig
	reoptBudget int
	spillDir    string
	spillSync   bool
	memo        *memo.Store // adaptive plan memo; nil when PlanCacheEntries == 0

	// Disk-native storage: the data directory paged datasets live in and the
	// shared byte-budgeted page cache serving them, holding a DB-lifetime
	// reservation scope against the memory governor.
	dataDir    string
	pageCache  *storage.PageCache
	cacheGrant *cluster.Grant

	pmu    sync.RWMutex // guards ctx.Params against SetParam during serving
	admit  chan struct{}
	qidSeq atomic.Int64

	faults *faults.Registry
	retry  RetryPolicy
}

// Open creates a DB.
func Open(cfg Config) *DB {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	algo := core.DefaultAlgoConfig()
	if cfg.BroadcastThresholdBytes > 0 {
		algo.BroadcastThresholdBytes = cfg.BroadcastThresholdBytes
	}
	algo.EnableINLJ = cfg.EnableINLJ
	if cfg.ChunkRows < 0 {
		cfg.ChunkRows = 0 // normalized here so every Context copy is valid
	}
	db := &DB{
		ctx: &engine.Context{
			Cluster:   cluster.New(cfg.Nodes),
			Catalog:   catalog.New(),
			UDFs:      expr.NewRegistry(),
			Params:    map[string]Value{},
			ChunkRows: cfg.ChunkRows,
		},
		algo:        algo,
		reoptBudget: cfg.ReoptBudget,
		spillDir:    cfg.SpillDir,
		spillSync:   cfg.SpillSync,
		faults:      cfg.Faults,
		retry:       cfg.Retry,
	}
	if cfg.MemoryPerNodeBytes != 0 {
		db.ctx.Cluster.SetMemoryPerNodeBytes(cfg.MemoryPerNodeBytes)
	}
	if cfg.Faults != nil {
		db.ctx.Cluster.Governor().SetFaults(cfg.Faults)
	}
	if cfg.MaxConcurrentQueries > 0 {
		db.admit = make(chan struct{}, cfg.MaxConcurrentQueries)
	}
	if cfg.DataDir != "" {
		db.dataDir = cfg.DataDir
		db.pageCache = storage.NewPageCache(DefaultPageCacheBytes)
		// The cache's resident bytes hold a DB-lifetime reservation scope:
		// cached pages compete with join build memory under the same
		// governor, and a failed reservation declines the insert (reads pass
		// through uncached) instead of pressuring queries into spilling for
		// the cache's benefit.
		db.cacheGrant = db.ctx.Cluster.Governor().Grant()
		db.pageCache.Reserve = db.cacheGrant.Reserve
		db.pageCache.Release = db.cacheGrant.Release
	}
	if cfg.PlanCacheEntries > 0 {
		db.memo = memo.NewStore(cfg.PlanCacheEntries, memo.Options{})
		// Catalog mutations — a base dataset registered, replaced, dropped,
		// or indexed — evict every memoized shape referencing it.
		db.ctx.Catalog.SetBaseHook(db.memo.InvalidateDataset)
	}
	return db
}

// Nodes returns the simulated cluster size.
func (db *DB) Nodes() int { return db.ctx.Cluster.Nodes() }

// DefaultPageCacheBytes is the byte budget of the page cache a DB with
// Config.DataDir set shares among its paged datasets, charged against the
// memory governor for the DB's lifetime (cached bytes compete with join build
// memory; under governor pressure the cache declines inserts and reads pass
// through).
const DefaultPageCacheBytes int64 = 4 << 20

// DefaultPageRows is the page granularity ConvertToPaged uses (rows per
// page) when rowsPerPage <= 0.
const DefaultPageRows = storage.DefaultPageRows

// ConvertToPaged writes a registered resident dataset to disk-native
// columnar form under Config.DataDir — sealed page file with per-column
// zone maps and checksummed directory, statistics sidecar, and one index
// sidecar per secondary index — then reopens it paged and re-registers it.
// The load-once conversion path: afterwards scans stream pages through the
// cache with zone-map pruning and pushdown, and results stay byte-identical
// to resident execution. rowsPerPage <= 0 selects DefaultPageRows.
// Loading-phase operation: must not race with in-flight queries.
func (db *DB) ConvertToPaged(name string, rowsPerPage int) error {
	if db.dataDir == "" {
		return fmt.Errorf("dynopt: ConvertToPaged requires Config.DataDir")
	}
	ds, ok := db.ctx.Catalog.Get(name)
	if !ok {
		return fmt.Errorf("dynopt: unknown dataset %q", name)
	}
	if ds.IsPaged() {
		return fmt.Errorf("dynopt: dataset %q is already paged", name)
	}
	st := db.ctx.Catalog.Stats().Get(name)
	if err := storage.WritePaged(db.dataDir, ds, st, rowsPerPage); err != nil {
		return err
	}
	return db.AttachPaged(name)
}

// AttachPaged opens a converted dataset from Config.DataDir and registers
// it: schema, primary key, and ingestion statistics come from the sidecar
// (byte-identical to what the conversion-time load collected, so plans and
// counters match resident runs exactly), persisted secondary indexes load
// alongside, and rows stay at rest in the page file until scanned.
// Loading-phase operation: must not race with in-flight queries.
func (db *DB) AttachPaged(name string) error {
	if db.dataDir == "" {
		return fmt.Errorf("dynopt: AttachPaged requires Config.DataDir")
	}
	ds, st, err := storage.OpenPaged(db.dataDir, name, db.pageCache, db.faults)
	if err != nil {
		return err
	}
	return db.ctx.Catalog.Register(ds, st)
}

// CreateDataset loads rows as a named dataset, hash-partitioned on pk across
// the cluster (round-robin when pk is nil), collecting ingestion-time
// statistics — the upfront statistics that seed every optimizer's first
// plan.
//
// The DB copies what it loads: each partition's rows go into one contiguous
// block of values the dataset owns, so the caller may refill, re-slice or
// drop rows (and every tuple in it) as soon as CreateDataset returns — a
// loader can push batch after batch through one buffer. The other side of
// the same coin: a result row that aliases stored values (a retained
// `SELECT *` row) keeps its whole partition's block reachable, even after
// DropDataset, until the row itself is released.
func (db *DB) CreateDataset(name string, schema *Schema, pk []string, rows []Tuple) error {
	ds, st, err := storage.Build(name, schema, pk, rows, db.ctx.Cluster.Nodes())
	if err != nil {
		return err
	}
	return db.ctx.Catalog.Register(ds, st)
}

// CreateIndex adds a secondary index on a dataset field, enabling indexed
// nested-loop joins against it. Memoized plans referencing the dataset are
// invalidated: they were converged without the index.
func (db *DB) CreateIndex(dataset, field string) error {
	ds, ok := db.ctx.Catalog.Get(dataset)
	if !ok {
		return fmt.Errorf("dynopt: unknown dataset %q", dataset)
	}
	if _, err := storage.BuildIndex(ds, field); err != nil {
		return err
	}
	if ds.IsPaged() && db.dataDir != "" {
		// Persist the index beside the page file so later AttachPaged opens
		// load it instead of rebuilding from pages.
		if err := storage.SaveIndex(db.dataDir, ds, field); err != nil {
			return err
		}
	}
	db.ctx.Catalog.NoteIndexBuilt(dataset)
	return nil
}

// DropDataset removes a base dataset and its statistics from the catalog,
// evicting every memoized plan shape that references it. Loading-phase
// operation: it must not race with in-flight queries over the same name.
func (db *DB) DropDataset(name string) error {
	if _, ok := db.ctx.Catalog.Get(name); !ok {
		return fmt.Errorf("dynopt: unknown dataset %q", name)
	}
	db.ctx.Catalog.Drop(name)
	return nil
}

// RegisterUDF installs a scalar user-defined function, callable from query
// predicates. UDFs are opaque to static selectivity estimation — exactly the
// predicates the dynamic strategy executes before planning.
func (db *DB) RegisterUDF(name string, fn func(args []Value) (Value, error)) error {
	return db.ctx.UDFs.Register(expr.UDF{Name: name, Fn: fn})
}

// SetParam binds a query parameter referenced as $name. Queries already
// executing keep the bindings they started with.
func (db *DB) SetParam(name string, v Value) {
	db.pmu.Lock()
	defer db.pmu.Unlock()
	db.ctx.Params[name] = v
}

// paramsFor snapshots the DB-level parameters merged with per-query
// overrides; every query gets its own copy so SetParam cannot race with
// predicate evaluation mid-flight.
func (db *DB) paramsFor(opts *QueryOptions) map[string]Value {
	db.pmu.RLock()
	merged := make(map[string]Value, len(db.ctx.Params))
	for k, v := range db.ctx.Params {
		merged[k] = v
	}
	db.pmu.RUnlock()
	if opts != nil {
		for k, v := range opts.Params {
			merged[k] = v
		}
	}
	return merged
}

// Datasets lists the registered base dataset names. Per-query temp
// intermediates are excluded: they belong to in-flight execution scopes,
// and surfacing them here made the listing flicker under concurrent
// queries.
func (db *DB) Datasets() []string { return db.ctx.Catalog.BaseNames() }

// Metrics reports what one query execution did and cost.
type Metrics struct {
	// Strategy that ran.
	Strategy string
	// Plan in the paper's compact notation, e.g. ((d1' ⋈b ss) ⋈ sr).
	Plan string
	// PlanTree is the indented multi-line plan.
	PlanTree string
	// Stages lists executed push-downs and join stages.
	Stages []string
	// Reopts counts blocking re-optimization points in the join loop.
	Reopts int
	// PushDowns counts executed predicate push-down jobs.
	PushDowns int
	// WallSeconds is the host-machine execution time.
	WallSeconds float64
	// SimSeconds prices the metered work on the simulated cluster.
	SimSeconds float64
	// Counters are the raw metered cost counters.
	Counters Snapshot
	// CacheHit reports that the query replayed a memoized plan end to end
	// (Config.PlanCacheEntries > 0): every staged job and the final
	// pipeline came from the plan memo, with Reopts == 0.
	CacheHit bool
	// ReplayFellBack reports that a replay started but a stage's observed
	// cardinality left the memo's tolerance band mid-query, and the run
	// fell back to the dynamic loop from the already-materialized
	// intermediate (results are always correct either way).
	ReplayFellBack bool
	// Attempts is how many executions this result took under Config.Retry
	// (1 when the first attempt succeeded or retry is disabled). Metrics
	// describe the final, successful attempt only.
	Attempts int
	// SpillRebuilds counts spill runs that failed integrity verification on
	// read-back and were rebuilt from their source partition (real-spill
	// mode; 0 means every run read back exactly as written).
	SpillRebuilds int64
	// Page-level scan observations (paged datasets only; all zero for
	// resident runs). Deliberately outside Counters: paged and resident
	// executions meter identical cost counters, and these report the I/O the
	// storage layer actually did — or proved it could skip.
	PagesRead     int64 // page frames read (cache hits included)
	PagesPruned   int64 // pages skipped by zone maps before any read
	PageCacheHits int64
	PageCacheMiss int64
}

// Result is a finished query.
type Result struct {
	Columns []string
	Rows    []Tuple
	Metrics Metrics
}

// QueryOptions selects the strategy and per-query overrides. Overrides
// apply to this query only: every call builds its own strategy instance, so
// concurrent queries with different options never observe each other's
// settings.
type QueryOptions struct {
	// Strategy defaults to StrategyDynamic.
	Strategy Strategy
	// Params bound for this query (overrides DB-level params).
	Params map[string]Value
	// MaxReopts overrides Config.ReoptBudget for this query: > 0 sets the
	// blocking re-optimization budget, < 0 means unlimited, 0 inherits the
	// DB-level budget.
	MaxReopts int
	// BroadcastThresholdBytes, when > 0, overrides the DB-level broadcast
	// threshold of the join-algorithm rule for this query.
	BroadcastThresholdBytes int64
	// EnableINLJ, when non-nil, overrides the DB-level indexed-nested-loop
	// setting for this query.
	EnableINLJ *bool
	// NoCache bypasses the plan memo for this query: no replay, no
	// recording. Queries with NoCache behave exactly as if
	// Config.PlanCacheEntries were 0.
	NoCache bool
	// Timeout bounds this query end to end — including time spent queued
	// for an admission slot (expiry there returns ErrAdmission) and all
	// retry attempts. 0 means no per-query deadline beyond ctx's own.
	Timeout time.Duration
}

// effectiveAlgo resolves the per-query join-algorithm configuration:
// DB-level defaults with opts overrides applied.
func (db *DB) effectiveAlgo(opts *QueryOptions) core.AlgoConfig {
	algo := db.algo
	if opts != nil {
		if opts.BroadcastThresholdBytes > 0 {
			algo.BroadcastThresholdBytes = opts.BroadcastThresholdBytes
		}
		if opts.EnableINLJ != nil {
			algo.EnableINLJ = *opts.EnableINLJ
		}
	}
	return algo
}

// effectiveBudget resolves the per-query re-optimization budget: > 0 sets
// it, < 0 lifts it, 0 inherits the DB-level ReoptBudget.
func (db *DB) effectiveBudget(opts *QueryOptions) int {
	if opts != nil {
		if opts.MaxReopts > 0 {
			return opts.MaxReopts
		}
		if opts.MaxReopts < 0 {
			return 0 // unlimited
		}
	}
	return db.reoptBudget
}

func (db *DB) strategyFor(opts *QueryOptions) (core.Strategy, error) {
	var s Strategy
	noCache := false
	if opts != nil {
		s = opts.Strategy
		noCache = opts.NoCache
	}
	algo := db.effectiveAlgo(opts)
	switch s {
	case "", StrategyDynamic:
		cfg := core.DefaultConfig()
		cfg.Algo = algo
		cfg.MaxReopts = db.effectiveBudget(opts)
		return &core.Dynamic{Cfg: cfg, Memo: db.memo, NoCache: noCache}, nil
	case StrategyCostBased:
		return &optimizer.CostBased{Cfg: algo}, nil
	case StrategyBestOrder:
		cfg := core.DefaultConfig()
		cfg.Algo = algo
		return &optimizer.BestOrder{Cfg: cfg}, nil
	case StrategyWorstOrder:
		return optimizer.NewWorstOrder(), nil
	case StrategyPilotRun:
		cfg := core.DefaultConfig()
		cfg.Algo = algo
		cfg.PushDown = false
		return &optimizer.PilotRun{Cfg: cfg, SampleK: optimizer.DefaultPilotSampleK}, nil
	case StrategyIngres:
		return &optimizer.IngresLike{Cfg: algo}, nil
	default:
		return nil, fmt.Errorf("dynopt: unknown strategy %q", s)
	}
}

// Query parses, optimizes, and executes sql under the selected strategy.
// Safe for concurrent use; equivalent to QueryCtx with a background context.
func (db *DB) Query(sql string, opts *QueryOptions) (*Result, error) {
	return db.QueryCtx(context.Background(), sql, opts)
}

// QueryCtx is Query with cancellation: the query stops at the next stage
// boundary (scan, join, materialization, or re-optimization point) once ctx
// is cancelled, and a call waiting on admission control gives up its place
// in line (returning ErrAdmission, which also wraps the deadline or cancel
// cause). Each query attempt runs in a private execution scope — its own
// cost accountant, so Metrics meters exactly this query's work no matter
// how many others run concurrently, and its own temp-dataset namespace,
// swept on every exit path so a failing query leaves the catalog unchanged.
// A panic anywhere in execution is contained at the query boundary into a
// *QueryError after the scope's cleanup has run. With Config.Retry set,
// transient failures re-run the query under the same admission slot.
func (db *DB) QueryCtx(ctx context.Context, sql string, opts *QueryOptions) (*Result, error) {
	// Validate the strategy before queueing: a bad option should not spend
	// time waiting for an admission slot.
	if _, err := db.strategyFor(opts); err != nil {
		return nil, err
	}
	if opts != nil && opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if db.admit != nil {
		select {
		case db.admit <- struct{}{}:
			defer func() { <-db.admit }()
		case <-ctx.Done():
			return nil, fmt.Errorf("dynopt: %w: %w", ErrAdmission, ctx.Err())
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	attempts := db.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		res, err := db.runOnce(ctx, sql, opts)
		if err == nil {
			res.Metrics.Attempts = attempt
			return res, nil
		}
		// Retry only failures classified transient, never a caller's own
		// cancellation, and never past the attempt budget. Each attempt's
		// scope was fully swept on its way out, so a re-run starts clean.
		if attempt >= attempts || !errors.Is(err, ErrTransient) || ctx.Err() != nil {
			return nil, err
		}
		if d := db.retry.backoff(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// runOnce executes one attempt in a fresh execution scope. The recover is
// registered before the cleanup defers, so on a panic the temp namespace is
// dropped, the grant closed, and the spill directory swept before the panic
// is converted to a *QueryError.
func (db *DB) runOnce(ctx context.Context, sql string, opts *QueryOptions) (out *Result, err error) {
	s, err := db.strategyFor(opts)
	if err != nil {
		return nil, err
	}
	scope := fmt.Sprintf("q%d_", db.qidSeq.Add(1))
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, error(faults.FromPanic("query", scope, v))
		}
	}()
	// Backstop sweep: the dynamic driver drops its temps itself, but if a
	// strategy errors or panics between materializing and registering its
	// cleanup, the query's unique namespace guarantees nothing survives.
	defer db.ctx.Catalog.DropPrefix(catalog.TempPrefix(scope))

	// Per-query memory grant against the cluster governor: every join build
	// table, aggregate table, and resident intermediate is reserved through
	// it, and whatever a failed or cancelled query still holds is released
	// here.
	grant := db.ctx.Cluster.Governor().Grant()
	defer grant.Close()

	qctx := &engine.Context{
		Cluster:   db.ctx.Cluster,
		Catalog:   db.ctx.Catalog,
		UDFs:      db.ctx.UDFs,
		Params:    db.paramsFor(opts),
		Acct:      &cluster.Accounting{},
		Scope:     scope,
		Cancel:    ctx,
		Grant:     grant,
		Faults:    db.faults,
		ChunkRows: db.ctx.ChunkRows,
		PageStats: &storage.PageScanStats{},
	}
	defer db.attachSpill(qctx, scope)()
	res, rep, err := s.Run(qctx, sql)
	if err != nil {
		return nil, err
	}
	out = &Result{Columns: res.Columns, Rows: res.Rows}
	out.Metrics = Metrics{
		Strategy:       rep.Strategy,
		Plan:           rep.Compact(),
		Stages:         rep.StagePlans,
		Reopts:         rep.Reopts,
		PushDowns:      rep.PushDowns,
		WallSeconds:    rep.Wall.Seconds(),
		SimSeconds:     rep.SimSeconds,
		Counters:       rep.Counters,
		CacheHit:       rep.CacheHit,
		ReplayFellBack: rep.ReplayFellBack,
		SpillRebuilds:  rep.Counters.SpillRebuilds,
		PagesRead:      qctx.PageStats.PagesRead.Load(),
		PagesPruned:    qctx.PageStats.PagesPruned.Load(),
		PageCacheHits:  qctx.PageStats.CacheHits.Load(),
		PageCacheMiss:  qctx.PageStats.CacheMisses.Load(),
	}
	if rep.Tree != nil {
		out.Metrics.PlanTree = rep.Tree.Tree()
	}
	return out, nil
}

// attachSpill is the one place a context of this DB gets its spill device:
// the disk half of a query's execution scope, a manager over Config.SpillDir
// whose run files live in a lazily created per-query directory — or nothing,
// when no directory is configured. It returns the sweep the caller defers,
// so the directory is emptied on every exit path like the catalog temp
// namespace.
func (db *DB) attachSpill(qctx *engine.Context, scope string) (sweep func() error) {
	if db.spillDir == "" {
		return func() error { return nil }
	}
	sm := storage.NewSpillManager(db.spillDir, scope)
	sm.Faults = db.faults
	sm.Sync = db.spillSync
	qctx.Spill = sm
	return sm.Sweep
}

// Explain runs the query under the selected strategy against a snapshot of
// the catalog (base datasets only, fresh cost accounting) and returns the
// plan it chose, without touching this DB's metering or its memory governor.
// The shadow run has this DB's memory budget and spill device — the planners
// decide by both — with its run files in a directory of its own, swept like
// any query's; injected faults are not copied. Note that for the
// adaptive strategies, explaining requires executing — the plan is only
// fully known at the end; that is the nature of runtime dynamic
// optimization. When the plan memo is enabled, the output additionally
// reports whether this query's shape would replay a memoized plan (the
// probe neither records nor perturbs the memo's LRU order).
func (db *DB) Explain(sql string, opts *QueryOptions) (string, error) {
	shadow := &DB{
		ctx: &engine.Context{
			Cluster:   cluster.New(db.ctx.Cluster.Nodes()),
			Catalog:   db.ctx.Catalog.CloneBases(),
			UDFs:      db.ctx.UDFs,
			Params:    db.paramsFor(nil),
			ChunkRows: db.ctx.ChunkRows,
		},
		algo:        db.algo,
		reoptBudget: db.reoptBudget,
		spillDir:    db.spillDir,
		spillSync:   db.spillSync,
	}
	shadow.ctx.Cluster.SetMemoryPerNodeBytes(db.ctx.Cluster.MemoryPerNodeBytes())
	res, err := shadow.Query(sql, opts)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("%s\n%s", res.Metrics.Plan, res.Metrics.PlanTree)
	// Only the dynamic strategy consults the memo; a probe for any other
	// strategy would mislead.
	if db.memo != nil && (opts == nil || opts.Strategy == "" || opts.Strategy == StrategyDynamic) {
		out += "\nplan cache: " + db.cacheProbe(sql, opts)
	}
	return out, nil
}

// cacheProbe reports whether a statement's shape would replay from the plan
// memo, without executing or touching LRU order.
func (db *DB) cacheProbe(sql string, opts *QueryOptions) string {
	if opts != nil && opts.NoCache {
		return "bypassed (NoCache)"
	}
	key, err := db.shapeKeyFor(sql, opts)
	if err != nil {
		return "miss"
	}
	e := db.memo.Peek(key)
	if e == nil {
		return "miss"
	}
	if reason, stale := e.Fingerprint.Stale(db.ctx.Catalog.Stats(), db.memo.Opts().StatsDriftTolerance); stale {
		return "stale (" + reason + ")"
	}
	return "hit — shape would replay"
}

// shapeKeyFor computes the memo key a query would execute under: canonical
// shape over the live catalog plus the effective per-query strategy
// configuration (the same derivation strategyFor uses), with the spill
// budget defaulted as Dynamic.Body defaults it: from SpillBudget, on a
// context given this DB's device the way a query's is (the probe spills
// nothing, so there is nothing to sweep).
func (db *DB) shapeKeyFor(sql string, opts *QueryOptions) (string, error) {
	q, err := sqlpp.Parse(sql)
	if err != nil {
		return "", err
	}
	g, err := sqlpp.Analyze(q, db.ctx.Catalog.Resolver())
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig()
	cfg.Algo = db.effectiveAlgo(opts)
	cfg.MaxReopts = db.effectiveBudget(opts)
	probe := engine.Context{Cluster: db.ctx.Cluster}
	db.attachSpill(&probe, "")
	cfg.Algo.SpillBudgetBytes = cmp.Or(cfg.Algo.SpillBudgetBytes, probe.SpillBudget())
	return core.ShapeKey(g, cfg), nil
}
