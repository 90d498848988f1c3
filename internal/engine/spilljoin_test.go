package engine

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dynopt/internal/cluster"
	"dynopt/internal/faults"
	"dynopt/internal/storage"
)

// realSpillCtx attaches a spill manager and a governor grant to a test
// context — the execution scope DB.QueryCtx builds when Config.SpillDir is
// set. Cleanup sweeps the spill dir and closes the grant like every query
// exit path does.
func realSpillCtx(t *testing.T, ctx *Context) (*storage.SpillManager, string) {
	t.Helper()
	root := t.TempDir()
	sm := storage.NewSpillManager(root, "qt_")
	ctx.Spill = sm
	ctx.Grant = ctx.Cluster.Governor().Grant()
	t.Cleanup(func() {
		sm.Sweep()
		ctx.Grant.Close()
	})
	return sm, root
}

func sortedRows(rel *Relation) []string {
	out := make([]string, 0, rel.RowCount())
	for _, p := range rel.Parts {
		for _, t := range p {
			out = append(out, t.String())
		}
	}
	sort.Strings(out)
	return out
}

func rowsEqual(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

// TestRealSpillJoin50kIdenticalResults walks a 50k-row build side down the
// memory-budget ladder — 4x, 1x, 1/2, 1/4, 1/8 of its per-node bytes — with
// real disk spilling. Every step must produce exactly the rows of the
// in-memory join, meter SpillBytes equal to the run-file bytes actually
// written, keep peak resident build memory within the grant and hand the
// grant back empty; the ample step stays resident, a tighter budget never
// spills less, and the tightest step pays for its I/O in simulated seconds.
func TestRealSpillJoin50kIdenticalResults(t *testing.T) {
	const nodes = 4
	build := func(ctx *Context) (*Relation, *Relation) {
		register(t, ctx, "fact", []string{"id"}, []string{"id", "k", "pay"}, seqTable(50000, 997))
		register(t, ctx, "dim", []string{"id"}, []string{"id", "k", "pay"}, seqTable(2000, 997))
		f, err := ScanByName(ctx, "fact", "f", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ScanByName(ctx, "dim", "d", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f, d
	}

	// Reference: ample memory, no spill manager.
	memCtx := testCtx(t, nodes)
	mf, md := build(memCtx)
	memCtx.Cluster.SetMemoryPerNodeBytes(1 << 30)
	memRel, err := HashJoin(memCtx, mf, md, joinKeys("f", "k"), joinKeys("d", "k"), true)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(memRel)

	// Budgets in eighths of the build side's per-node bytes, ample first.
	steps := []struct {
		name    string
		eighths int64
	}{{"4x", 32}, {"1x", 8}, {"0.5x", 4}, {"0.25x", 2}, {"0.125x", 1}}
	var spilled []cluster.Snapshot
	var sims []float64
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			ctx := testCtx(t, nodes)
			f, d := build(ctx)
			buildDS, _ := ctx.Catalog.Get("fact")
			ctx.Cluster.SetMemoryPerNodeBytes(buildDS.ByteSize() / nodes * st.eighths / 8)
			sm, _ := realSpillCtx(t, ctx)

			before := ctx.Cluster.Acct().Snapshot()
			rel, err := HashJoin(ctx, f, d, joinKeys("f", "k"), joinKeys("d", "k"), true)
			if err != nil {
				t.Fatal(err)
			}
			diff := ctx.Cluster.Acct().Snapshot().Sub(before)
			spilled = append(spilled, diff)
			sims = append(sims, ctx.Cluster.Model().SimSeconds(diff, nodes))

			rowsEqual(t, sortedRows(rel), want)
			if got := sm.BytesWritten(); diff.SpillBytes != got {
				t.Errorf("SpillBytes = %d, actual run-file bytes written = %d", diff.SpillBytes, got)
			}
			capacity := ctx.Cluster.Governor().Capacity()
			if peak := ctx.Grant.Peak(); peak > capacity {
				t.Errorf("peak resident build memory %d exceeded the grant capacity %d", peak, capacity)
			}
			if held := ctx.Grant.Used(); held != 0 {
				t.Errorf("join left %d bytes held on the grant", held)
			}
		})
	}
	if len(spilled) != len(steps) {
		return // a step failed before it was metered
	}
	last := len(steps) - 1
	if spilled[0].SpillBytes != 0 {
		t.Errorf("ample budget spilled %d bytes", spilled[0].SpillBytes)
	}
	if spilled[last].SpillBytes == 0 || spilled[last].SpillRows == 0 {
		t.Errorf("1/8 budget did not spill: %+v", spilled[last])
	}
	for i := 1; i <= last; i++ {
		if spilled[i].SpillBytes < spilled[i-1].SpillBytes {
			t.Errorf("%s spilled %d bytes, less than %s's %d",
				steps[i].name, spilled[i].SpillBytes, steps[i-1].name, spilled[i-1].SpillBytes)
		}
	}
	if sims[last] <= sims[0] {
		t.Errorf("spilling run (%v sim s) not more expensive than resident run (%v sim s)", sims[last], sims[0])
	}
}

// TestRealSpillSweepLeavesDirEmpty checks the disk side of the lifecycle:
// run files are consumed and removed by the join itself, and the sweep
// removes the per-query directory.
func TestRealSpillSweepLeavesDirEmpty(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "a", []string{"id"}, []string{"id", "k", "pay"}, seqTable(20000, 499))
	register(t, ctx, "b", []string{"id"}, []string{"id", "k", "pay"}, seqTable(1000, 499))
	ctx.Cluster.SetMemoryPerNodeBytes(8 << 10)
	sm, root := realSpillCtx(t, ctx)
	ra, _ := ScanByName(ctx, "a", "a", nil, nil)
	rb, _ := ScanByName(ctx, "b", "b", nil, nil)
	if _, err := HashJoin(ctx, ra, rb, joinKeys("a", "k"), joinKeys("b", "k"), true); err != nil {
		t.Fatal(err)
	}
	if sm.BytesWritten() == 0 {
		t.Fatal("join under an 8KB budget did not spill")
	}
	// The join consumed and removed every run file it wrote.
	if dir := sm.Dir(); dir != "" {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("run files left behind after the join: %d", len(entries))
		}
	}
	if err := sm.Sweep(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill root not empty after sweep: %v", entries)
	}
}

// TestRealSpillSkewFallsBackInMemory drives the recursion pathology: every
// row shares one join key, so no amount of re-partitioning splits the
// spilled pair, and the depth-capped fallback joins it in memory — with
// correct results.
func TestRealSpillSkewFallsBackInMemory(t *testing.T) {
	ctx := testCtx(t, 2)
	rows := make([][]int64, 3000)
	for i := range rows {
		rows[i] = []int64{int64(i), 7, int64(i)}
	}
	small := make([][]int64, 5)
	for i := range small {
		small[i] = []int64{int64(i), 7, int64(i)}
	}
	register(t, ctx, "skew", []string{"id"}, []string{"id", "k", "pay"}, rows)
	register(t, ctx, "tiny", []string{"id"}, []string{"id", "k", "pay"}, small)
	ctx.Cluster.SetMemoryPerNodeBytes(2 << 10) // far below the one hot key's rows
	realSpillCtx(t, ctx)
	rs, _ := ScanByName(ctx, "skew", "s", nil, nil)
	rt, _ := ScanByName(ctx, "tiny", "t", nil, nil)
	rel, err := HashJoin(ctx, rs, rt, joinKeys("s", "k"), joinKeys("t", "k"), true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rel.RowCount(), int64(3000*5); got != want {
		t.Errorf("skewed spill join produced %d rows, want %d", got, want)
	}
}

// TestBroadcastFallsBackToPartitionedWhenOverBudget: in real-spill mode an
// over-budget build side is not replicated; the join runs partitioned (no
// broadcast traffic) and still returns identical rows.
func TestBroadcastFallsBackToPartitionedWhenOverBudget(t *testing.T) {
	const nodes = 4
	load := func(ctx *Context) (*Relation, *Relation) {
		register(t, ctx, "fact", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 200))
		register(t, ctx, "dim", []string{"id"}, []string{"id", "k", "pay"}, seqTable(1000, 200))
		f, _ := ScanByName(ctx, "fact", "f", nil, nil)
		d, _ := ScanByName(ctx, "dim", "d", nil, nil)
		return f, d
	}
	memCtx := testCtx(t, nodes)
	mf, md := load(memCtx)
	memCtx.Cluster.SetMemoryPerNodeBytes(1 << 30)
	memRel, err := BroadcastJoin(memCtx, mf, md, joinKeys("f", "k"), joinKeys("d", "k"), false)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(memRel)

	ctx := testCtx(t, nodes)
	f, d := load(ctx)
	ctx.Cluster.SetMemoryPerNodeBytes(4 << 10) // dim copy (~27KB) over budget
	realSpillCtx(t, ctx)
	before := ctx.Cluster.Acct().Snapshot()
	rel, err := BroadcastJoin(ctx, f, d, joinKeys("f", "k"), joinKeys("d", "k"), false)
	if err != nil {
		t.Fatal(err)
	}
	diff := ctx.Cluster.Acct().Snapshot().Sub(before)
	if diff.BroadcastBytes != 0 || diff.BroadcastRows != 0 {
		t.Errorf("over-budget broadcast still replicated: %+v", diff)
	}
	if diff.ShuffleRows == 0 {
		t.Error("fallback did not run the partitioned join")
	}
	rowsEqual(t, sortedRows(rel), want)
}

// TestBroadcastWithinBudgetStillBroadcasts: real-spill mode leaves
// within-budget broadcasts alone (and holds the replicated copies on the
// grant while the join runs).
func TestBroadcastWithinBudgetStillBroadcasts(t *testing.T) {
	ctx := testCtx(t, 4)
	register(t, ctx, "fact", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 50))
	register(t, ctx, "dim", []string{"id"}, []string{"id", "k", "pay"}, seqTable(50, 50))
	ctx.Cluster.SetMemoryPerNodeBytes(256 << 10)
	realSpillCtx(t, ctx)
	f, _ := ScanByName(ctx, "fact", "f", nil, nil)
	d, _ := ScanByName(ctx, "dim", "d", nil, nil)
	before := ctx.Cluster.Acct().Snapshot()
	if _, err := BroadcastJoin(ctx, f, d, joinKeys("f", "k"), joinKeys("d", "k"), false); err != nil {
		t.Fatal(err)
	}
	diff := ctx.Cluster.Acct().Snapshot().Sub(before)
	if diff.BroadcastBytes == 0 {
		t.Error("within-budget broadcast did not broadcast")
	}
	if diff.SpillBytes != 0 {
		t.Errorf("within-budget broadcast spilled %d bytes", diff.SpillBytes)
	}
	if held := ctx.Grant.Used(); held != 0 {
		t.Errorf("broadcast left %d bytes held on the grant", held)
	}
}

// TestSimulatedModeUntouchedBySpillSupport pins the opt-in contract: with
// no spill manager attached, a tight budget still meters the simulated
// model and writes nothing.
func TestSimulatedModeUntouchedBySpillSupport(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "a", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
	register(t, ctx, "b", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
	ctx.Cluster.SetMemoryPerNodeBytes(4 << 10)
	ra, _ := ScanByName(ctx, "a", "a", nil, nil)
	rb, _ := ScanByName(ctx, "b", "b", nil, nil)
	if _, err := HashJoin(ctx, ra, rb, joinKeys("a", "k"), joinKeys("b", "k"), false); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cluster.Acct().SpillBytes.Load(); got == 0 {
		t.Error("simulated spill model stopped metering")
	}
}

// TestRealSpillGovernorPressureSheds: a second query hogging the governor
// forces an otherwise-fitting join to spill — heavy traffic degrades to
// disk instead of over-committing memory.
func TestRealSpillGovernorPressureSheds(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "a", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
	register(t, ctx, "b", []string{"id"}, []string{"id", "k", "pay"}, seqTable(1000, 100))
	ctx.Cluster.SetMemoryPerNodeBytes(256 << 10) // ample for this build side
	sm, _ := realSpillCtx(t, ctx)

	// Another query holds the whole cluster budget.
	hog := ctx.Cluster.Governor().Grant()
	hog.Reserve(ctx.Cluster.Governor().Capacity())
	defer hog.Close()

	ra, _ := ScanByName(ctx, "a", "a", nil, nil)
	rb, _ := ScanByName(ctx, "b", "b", nil, nil)
	rel, err := HashJoin(ctx, ra, rb, joinKeys("a", "k"), joinKeys("b", "k"), true)
	if err != nil {
		t.Fatal(err)
	}
	if rel.RowCount() == 0 {
		t.Fatal("join under pressure produced no rows")
	}
	if sm.BytesWritten() == 0 {
		t.Error("governor pressure did not push the join to disk")
	}
}

// corruptSpillJoin runs the 1/8-budget spilling join with a corruption rule
// armed on spill.corrupt, returning the sorted output rows, the counter
// delta, and the join error.
func corruptSpillJoin(t *testing.T, rule faults.Rule) ([]string, cluster.Snapshot, error) {
	t.Helper()
	return corruptSpillJoinOn(t, 2, false, rule)
}

// corruptSpillJoinOn is corruptSpillJoin on a cluster of the given size,
// through the relation-in HashJoin or — fromScans — with both sides arriving
// as scan sources, the probe consumed chunk by chunk.
func corruptSpillJoinOn(t *testing.T, nodes int, fromScans bool, rule faults.Rule) ([]string, cluster.Snapshot, error) {
	t.Helper()
	ctx := testCtx(t, nodes)
	fact := register(t, ctx, "fact", []string{"id"}, []string{"id", "k", "pay"}, seqTable(20000, 499))
	dim := register(t, ctx, "dim", []string{"id"}, []string{"id", "k", "pay"}, seqTable(1000, 499))
	ctx.Cluster.SetMemoryPerNodeBytes(fact.ByteSize() / int64(nodes) / 8)
	sm, _ := realSpillCtx(t, ctx)
	reg := faults.New(0xC0FFEE)
	reg.Arm(rule)
	ctx.Faults = reg
	sm.Faults = reg

	var f, d *Relation
	var err error
	if !fromScans {
		if f, err = Scan(ctx, fact, "f", nil, nil); err != nil {
			t.Fatal(err)
		}
		if d, err = Scan(ctx, dim, "d", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := ctx.Cluster.Acct().Snapshot()
	var rel *Relation
	if fromScans {
		rel, err = collectJoin(nodes, func(mk SinkFactory) error {
			fsrc, err := ScanSource(ctx, fact, "f", nil, nil)
			if err != nil {
				return err
			}
			dsrc, err := ScanSource(ctx, dim, "d", nil, nil)
			if err != nil {
				return err
			}
			return HashJoinStream(ctx, fsrc, dsrc, joinKeys("f", "k"), joinKeys("d", "k"), true, mk)
		})
	} else {
		rel, err = HashJoin(ctx, f, d, joinKeys("f", "k"), joinKeys("d", "k"), true)
	}
	delta := ctx.Cluster.Acct().Snapshot().Sub(before)
	if err != nil {
		if rel != nil {
			t.Errorf("a failed join returned %d rows", rel.RowCount())
		}
		return nil, delta, err
	}
	return sortedRows(rel), delta, nil
}

// TestSpillCorruptionRebuildsRun: one injected corruption (any kind) is
// healed by rebuilding the damaged run from its still-resident source — the
// join's rows are byte-identical to the clean run's, with the rebuild
// metered.
func TestSpillCorruptionRebuildsRun(t *testing.T) {
	clean, cleanDelta, err := corruptSpillJoin(t, faults.Rule{Point: "spill.corrupt", Corrupt: faults.CorruptNone})
	if err != nil {
		t.Fatal(err)
	}
	if cleanDelta.SpillBytes == 0 {
		t.Fatal("reference join did not spill")
	}
	if cleanDelta.SpillRebuilds != 0 {
		t.Fatalf("reference join rebuilt %d runs", cleanDelta.SpillRebuilds)
	}
	for _, tc := range []struct {
		name string
		kind faults.CorruptKind
	}{
		{"flip-bit", faults.CorruptFlipBit},
		{"truncate-tail", faults.CorruptTruncateTail},
		{"torn-write", faults.CorruptTornWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, delta, err := corruptSpillJoin(t, faults.Rule{Point: "spill.corrupt", OneShot: true, Corrupt: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			if delta.SpillRebuilds < 1 {
				t.Errorf("no rebuild metered: %+v", delta)
			}
			rowsEqual(t, rows, clean)
		})
	}
}

// TestSpillCorruptionRecursFailsClassified: corruption striking every
// read-back (EveryN:1) damages the rebuilt run too; the join must fail
// classified ErrCorrupt, never return short or wrong rows.
func TestSpillCorruptionRecursFailsClassified(t *testing.T) {
	_, _, err := corruptSpillJoin(t, faults.Rule{Point: "spill.corrupt", EveryN: 1, Corrupt: faults.CorruptFlipBit})
	if err == nil {
		t.Fatal("recurring corruption joined without error")
	}
	if !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("recurring corruption classified %v, want ErrCorrupt", err)
	}
}

// firstProbeRun damages the first probe run a join verifies: with partitions
// joined one after another, the second read-back of a sealed run is the
// first spilled pair's probe run (its build run is read first).
var firstProbeRun = faults.Rule{Point: "spill.corrupt", EveryN: 2, OneShot: true, Corrupt: faults.CorruptFlipBit}

// TestSpillCorruptProbeRunRebuiltFromRelation: a probe that is a relation can
// be read again, so a level-0 probe run found corrupt on read-back is rebuilt
// from the partition it came from — exchanged as a relation first, on two
// nodes — and the join's rows are the clean run's.
func TestSpillCorruptProbeRunRebuiltFromRelation(t *testing.T) {
	// One worker joins partition 0 to the end before partition 1 starts, so
	// the rule's second hit is a probe run on every run of the test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clean, _, err := corruptSpillJoin(t, faults.Rule{Point: "spill.corrupt", Corrupt: faults.CorruptNone})
	if err != nil {
		t.Fatal(err)
	}
	rows, delta, err := corruptSpillJoin(t, firstProbeRun)
	if err != nil {
		t.Fatal(err)
	}
	if delta.SpillRebuilds < 1 {
		t.Errorf("no rebuild metered: %+v", delta)
	}
	rowsEqual(t, rows, clean)
}

// TestSpillCorruptProbeRunFromScanFailsClassified: a probe fed by a scan was
// consumed as it arrived, so the same damage has nothing to rebuild from: the
// join fails classified ErrCorrupt and returns no rows. One node: the scan
// feeds the join in place, one partition, one goroutine.
func TestSpillCorruptProbeRunFromScanFailsClassified(t *testing.T) {
	_, _, err := corruptSpillJoinOn(t, 1, true, firstProbeRun)
	if !errors.Is(err, faults.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "corrupt probe run with no replayable source") {
		t.Fatalf("join over a damaged probe run from a scan: %v, want ErrCorrupt with no replayable source", err)
	}
}
