package engine

import (
	"testing"

	"dynopt/internal/storage"
)

// SpillBudget is the one answer to "is this run really spilling, and under
// what budget": a device and a positive budget, or nothing spills.
func TestSpillBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		device bool
		memory int64
		want   int64
	}{
		{"no device", false, 4 << 10, 0},
		{"no device, no budget", false, 0, 0},
		{"device, budget zero", true, 0, 0},
		{"device, budget negative", true, -1, 0},
		{"device, budget positive", true, 4 << 10, 4 << 10},
	} {
		ctx := testCtx(t, 2)
		ctx.Cluster.SetMemoryPerNodeBytes(tc.memory)
		if tc.device {
			ctx.Spill = storage.NewSpillManager(t.TempDir(), "budget_")
		}
		if got := ctx.SpillBudget(); got != tc.want {
			t.Errorf("%s: SpillBudget() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestHashJoinSpillsOverMemoryBudget(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "big", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
	register(t, ctx, "other", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
	// Tiny budget: the build side (~67KB per partition) must overflow.
	ctx.Cluster.SetMemoryPerNodeBytes(4 << 10)
	big, _ := ScanByName(ctx, "big", "a", nil, nil)
	other, _ := ScanByName(ctx, "other", "b", nil, nil)
	before := ctx.Cluster.Acct().Snapshot()
	if _, err := HashJoin(ctx, big, other, joinKeys("a", "k"), joinKeys("b", "k"), false); err != nil {
		t.Fatal(err)
	}
	d := ctx.Cluster.Acct().Snapshot().Sub(before)
	if d.SpillBytes == 0 || d.SpillRows == 0 {
		t.Errorf("no spill metered: %+v", d)
	}
	// Spilled bytes bounded by 2× total data (one write+read round trip).
	total := big.ByteSize() + other.ByteSize()
	if d.SpillBytes > 2*total {
		t.Errorf("spill bytes %d exceed 2× data %d", d.SpillBytes, 2*total)
	}
}

func TestHashJoinNoSpillWithinBudget(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "a", []string{"id"}, []string{"id", "k", "pay"}, seqTable(100, 10))
	register(t, ctx, "b", []string{"id"}, []string{"id", "k", "pay"}, seqTable(100, 10))
	ra, _ := ScanByName(ctx, "a", "a", nil, nil)
	rb, _ := ScanByName(ctx, "b", "b", nil, nil)
	if _, err := HashJoin(ctx, ra, rb, joinKeys("a", "k"), joinKeys("b", "k"), false); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cluster.Acct().SpillBytes.Load(); got != 0 {
		t.Errorf("spilled %d bytes within budget", got)
	}
}

func TestSpillDisabled(t *testing.T) {
	ctx := testCtx(t, 2)
	register(t, ctx, "big", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
	ctx.Cluster.SetMemoryPerNodeBytes(0) // disabled
	big, _ := ScanByName(ctx, "big", "a", nil, nil)
	big2, _ := ScanByName(ctx, "big", "b", nil, nil)
	if _, err := HashJoin(ctx, big, big2, joinKeys("a", "k"), joinKeys("b", "k"), false); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cluster.Acct().SpillBytes.Load(); got != 0 {
		t.Errorf("spilled %d bytes with modelling disabled", got)
	}
}

func TestBroadcastJoinSpillsWhenBuildCopyTooBig(t *testing.T) {
	ctx := testCtx(t, 4)
	register(t, ctx, "fact", []string{"id"}, []string{"id", "k", "pay"}, seqTable(2000, 50))
	register(t, ctx, "dim", []string{"id"}, []string{"id", "k", "pay"}, seqTable(1000, 50))
	ctx.Cluster.SetMemoryPerNodeBytes(2 << 10) // 2KB: the 27KB dim copy spills
	fact, _ := ScanByName(ctx, "fact", "f", nil, nil)
	dim, _ := ScanByName(ctx, "dim", "d", nil, nil)
	if _, err := BroadcastJoin(ctx, fact, dim, joinKeys("f", "k"), joinKeys("d", "k"), false); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cluster.Acct().SpillBytes.Load(); got == 0 {
		t.Error("broadcast over-budget build did not spill")
	}
}

func TestSpillRaisesSimTime(t *testing.T) {
	run := func(budget int64) float64 {
		ctx := testCtx(t, 2)
		register(t, ctx, "a", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
		register(t, ctx, "b", []string{"id"}, []string{"id", "k", "pay"}, seqTable(5000, 100))
		ctx.Cluster.SetMemoryPerNodeBytes(budget)
		ra, _ := ScanByName(ctx, "a", "a", nil, nil)
		rb, _ := ScanByName(ctx, "b", "b", nil, nil)
		if _, err := HashJoin(ctx, ra, rb, joinKeys("a", "k"), joinKeys("b", "k"), false); err != nil {
			t.Fatal(err)
		}
		return ctx.Cluster.Model().SimSeconds(ctx.Cluster.Acct().Snapshot(), 2)
	}
	ample := run(1 << 30)
	tight := run(4 << 10)
	if tight <= ample {
		t.Errorf("spilling run (%v) not more expensive than in-memory run (%v)", tight, ample)
	}
}
