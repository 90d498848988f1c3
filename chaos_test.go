package dynopt

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dynopt/internal/faults/leakcheck"
)

// chaosEnv is the shared fixture for the seeded chaos matrix: one DB with
// both Figure-7 workloads loaded, real spilling at a small per-node budget
// so every fault point on the spill path is reachable, the plan memo on so
// replay faults are reachable, and a seeded fault registry armed and
// re-armed per scenario.
type chaosEnv struct {
	db  *DB
	reg *FaultRegistry
	dir string
}

func newChaosEnv(t *testing.T) *chaosEnv {
	t.Helper()
	dir := t.TempDir()
	reg := NewFaultRegistry(0xD15EA5E)
	db := Open(Config{
		Nodes:            4,
		SpillDir:         dir,
		PlanCacheEntries: 8,
		Faults:           reg,
	})
	if _, err := LoadTPCH(db, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTPCDS(db, 1); err != nil {
		t.Fatal(err)
	}
	// Small enough that the Figure-7 joins overflow and spill; large enough
	// that the suite is not dominated by run-file churn.
	db.ctx.Cluster.SetMemoryPerNodeBytes(32 << 10)
	return &chaosEnv{db: db, reg: reg, dir: dir}
}

// checkInvariants asserts the chaos contract for one finished run: the rows
// are byte-identical to the fault-free baseline OR the error is cleanly
// classified, and either way the governor balances to zero, the spill
// directory is empty, and the visible catalog is unchanged.
func (e *chaosEnv) checkInvariants(t *testing.T, res *Result, err error, want, baseDatasets []string) {
	t.Helper()
	if err != nil {
		var qe *QueryError
		if !errors.Is(err, ErrTransient) && !errors.Is(err, ErrOverCapacity) &&
			!errors.Is(err, ErrAdmission) && !errors.As(err, &qe) {
			t.Errorf("unclassified error: %v", err)
		}
	} else {
		got := sortedResultRows(res)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows diverged from fault-free baseline: got %d rows, want %d", len(got), len(want))
		}
	}
	if used := e.db.ctx.Cluster.Governor().Used(); used != 0 {
		t.Errorf("governor unbalanced after run: %d bytes still held", used)
	}
	dirEmpty(t, e.dir)
	if ds := e.db.Datasets(); !reflect.DeepEqual(ds, baseDatasets) {
		t.Errorf("Datasets() changed: got %v, want %v", ds, baseDatasets)
	}
}

// TestChaosMatrix drives every Figure-7 query under every strategy through
// a matrix of injected failures — spill-device write and read errors, grant
// denials, an operator panic mid-probe, a stalled-then-failed exchange
// consumer, and a faulted memo replay — all from one fixed seed, under
// -race in CI. Every single run must end in byte-identical rows or a
// cleanly classified error, with no leaked goroutines, a balanced governor,
// an empty spill directory, and an unchanged catalog.
func TestChaosMatrix(t *testing.T) {
	env := newChaosEnv(t)
	leakcheck.Check(t)

	queries := []struct {
		name string
		sql  string
	}{
		{"tpcds_q17", TPCDSQ17()},
		{"tpcds_q50", TPCDSQ50()},
		{"tpch_q8", TPCHQ8()},
		{"tpch_q9", TPCHQ9()},
	}

	// Fault-free baselines, one per query x strategy cell. These runs also
	// warm the plan memo so the replay-fault scenario has plans to replay.
	baseline := map[string][]string{}
	for _, q := range queries {
		for _, s := range allStrategies {
			res, err := env.db.Query(q.sql, &QueryOptions{Strategy: s})
			if err != nil {
				t.Fatalf("baseline %s/%s: %v", q.name, s, err)
			}
			baseline[q.name+"/"+string(s)] = sortedResultRows(res)
		}
	}
	baseDatasets := env.db.Datasets()

	scenarios := []struct {
		name  string
		rules []FaultRule
	}{
		// Every 7th run-file append fails: queries either ride the DHHJ
		// degradation rung or surface a classified spill-I/O error.
		{"spill-write", []FaultRule{{Point: "spill.append", EveryN: 7}}},
		// The first run-file open on the probe side fails once.
		{"spill-read", []FaultRule{{Point: "spill.read", OneShot: true}}},
		// Every 3rd grant reservation is denied: pure pressure, so every
		// run must still succeed with identical rows (broadcast falls back
		// to partitioned, resident builds fall back to spilling).
		{"grant-denial", []FaultRule{{Point: "governor.reserve", EveryN: 3}}},
		// One probe worker panics mid-drain: containment must convert it
		// to a *QueryError after cleanup, never crash the process.
		{"operator-panic", []FaultRule{{Point: "probe.drain", OneShot: true, Panic: true}}},
		// One exchange consumer stalls, then its stream fails: producers
		// must notice teardown instead of blocking on full channels.
		{"exchange-stall", []FaultRule{{Point: "exchange.consume", OneShot: true, Stall: 5 * time.Millisecond}}},
		// Exchange streams fail mid-flight, a consumer's and then a
		// producer's: the exchange's frames go back to the process-wide
		// pool on those exits too, and only the ones nobody holds — the
		// queries that follow draw on that pool and must still answer
		// with baseline rows (under -race, a frame pooled while a drain
		// loop still read it would be reported).
		{"exchange-consumer-fail", []FaultRule{{Point: "exchange.consume", EveryN: 4}}},
		{"exchange-producer-fail", []FaultRule{{Point: "exchange.produce", EveryN: 6}}},
		// The first memo replay faults: the query must fall back to the
		// full dynamic loop and still answer correctly.
		{"replay-fault", []FaultRule{{Point: "memo.replay", OneShot: true}}},
		// One sealed run has a bit flipped at rest before read-back: the
		// checksums must catch it and the join heal by rebuilding the run —
		// identical rows, never silently wrong.
		{"spill-corrupt-flip", []FaultRule{{Point: "spill.corrupt", OneShot: true, Corrupt: CorruptFlipBit}}},
		// Every 5th run read back lost its tail: rebuilt runs that come back
		// damaged again exhaust the rebuild-once contract, so runs end in
		// identical rows or a classified ErrCorrupt — both acceptable.
		{"spill-corrupt-truncate", []FaultRule{{Point: "spill.corrupt", EveryN: 5, Corrupt: CorruptTruncateTail}}},
		// One torn write zeroed a sealed run's tail page at rest.
		{"spill-corrupt-torn", []FaultRule{{Point: "spill.corrupt", OneShot: true, Corrupt: CorruptTornWrite}}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, q := range queries {
				for _, s := range allStrategies {
					t.Run(fmt.Sprintf("%s/%s", q.name, s), func(t *testing.T) {
						env.reg.Reset()
						for _, r := range sc.rules {
							env.reg.Arm(r)
						}
						res, err := env.db.Query(q.sql, &QueryOptions{Strategy: s, Timeout: 2 * time.Minute})
						env.checkInvariants(t, res, err, baseline[q.name+"/"+string(s)], baseDatasets)
						if sc.name == "grant-denial" && err != nil {
							t.Errorf("grant denial is pressure, not failure: %v", err)
						}
					})
				}
			}
			env.reg.Reset()
		})
	}
}

// TestChaosIndexJoin is the matrix's indexed row: a Figure 8 query with INLJ
// enabled over indexed datasets, under every strategy, through the faults an
// index join can meet — its outer's scan failing to open, a partition's index
// worker failing or panicking where a hash probe's would (probe.drain), and
// the stage sink failing to seal. Same contract as TestChaosMatrix.
func TestChaosIndexJoin(t *testing.T) {
	dir := t.TempDir()
	reg := NewFaultRegistry(0xD15EA5E)
	db := Open(Config{Nodes: 4, SpillDir: dir, EnableINLJ: true, Faults: reg})
	if _, err := LoadTPCDS(db, 1); err != nil {
		t.Fatal(err)
	}
	if err := CreateTPCDSIndexes(db); err != nil {
		t.Fatal(err)
	}
	db.ctx.Cluster.SetMemoryPerNodeBytes(32 << 10)
	env := &chaosEnv{db: db, reg: reg, dir: dir}
	leakcheck.Check(t)

	sql := TPCDSQ17()
	baseline := map[Strategy][]string{}
	var lookups int64
	for _, s := range allStrategies {
		res, err := db.Query(sql, &QueryOptions{Strategy: s})
		if err != nil {
			t.Fatalf("baseline %s: %v", s, err)
		}
		baseline[s] = sortedResultRows(res)
		lookups += res.Metrics.Counters.IndexLookups
	}
	if lookups == 0 {
		t.Fatal("vacuous: no strategy ran an index join")
	}
	baseDatasets := db.Datasets()

	// The counts are chosen to land inside the index join, which the
	// cost-based plan runs first — (ss ⋈i d1'), a filtered-scan outer landed
	// over four cursors, then four index workers — and the dynamic plan right
	// after its three push-down stages.
	scenarios := []struct {
		name string
		rule FaultRule
	}{
		// The outer's third cursor fails to open while the others collect.
		{"scan-open-fail", FaultRule{Point: "scan.open", EveryN: 3}},
		// The third partition's index worker fails before its first lookup.
		{"probe-drain-fail", FaultRule{Point: "probe.drain", EveryN: 3}},
		// The first index worker panics: contained into a *QueryError.
		{"operator-panic", FaultRule{Point: "probe.drain", OneShot: true, Panic: true}},
		// The dynamic plan's fourth sink — the index-join stage's — fails to
		// seal what the join streamed into it.
		{"sink-finish-fail", FaultRule{Point: "sink.finish", EveryN: 4}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			fired := 0
			for _, s := range allStrategies {
				t.Run(string(s), func(t *testing.T) {
					reg.Reset()
					reg.Arm(sc.rule)
					res, err := db.Query(sql, &QueryOptions{Strategy: s, Timeout: 2 * time.Minute})
					env.checkInvariants(t, res, err, baseline[s], baseDatasets)
					fired += reg.Fired(sc.rule.Point)
				})
			}
			reg.Reset()
			if fired == 0 {
				t.Error("vacuous: the fault never fired")
			}
		})
	}
}
