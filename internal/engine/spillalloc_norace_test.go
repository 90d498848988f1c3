//go:build !race

package engine

import (
	"runtime"
	"testing"
)

// TestSpillAllocationBounds prices a real-spill join per row that passed
// through a run file. Every block buffer comes from the frame pool, a
// read-back row decodes into a slab (probe) or the join's arena (build), and
// a read-back stream's chunk is reused by the next, so what is left per run
// row is its one string payload, copied out of the block on read-back, and
// per-run scraps: the reader, the stream's file name, the slab's first
// chunk. A heap tuple per row read back costs a second object and a 96-byte
// allocation per row (281 bytes and 2.05 objects per row in all); a fresh
// 64 KiB reader buffer per run costs 226 bytes per row on this fixture, a
// writer's 145. Not under -race, whose sync.Pool drops a share of the frames
// handed back.
func TestSpillAllocationBounds(t *testing.T) {
	ctx, _, none := probeAllocFixture(t)
	var spillRows int64
	measure := func() (bytes, objects uint64) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows0 := ctx.Accounting().SpillRows.Load()
		if out := spillingProbeProjected(t, ctx, none); out != 0 {
			t.Fatalf("disjoint build side produced %d rows", out)
		}
		runtime.ReadMemStats(&after)
		spillRows = ctx.Accounting().SpillRows.Load() - rows0
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	measure() // warm the frame pool
	bytes, objects := ^uint64(0), ^uint64(0)
	for range 2 {
		b, o := measure()
		bytes, objects = min(bytes, b), min(objects, o)
	}
	perBytes := float64(bytes) / float64(spillRows)
	perObjects := float64(objects) / float64(spillRows)
	t.Logf("%.1f bytes and %.2f heap objects per run-file row (%d run rows)", perBytes, perObjects, spillRows)
	if perObjects > 1.5 {
		t.Errorf("real-spill join allocates %.2f heap objects per run-file row, want <= 1.5: rows read back are being decoded into heap tuples", perObjects)
	}
	if perBytes > 120 {
		t.Errorf("real-spill join allocates %.0f bytes per run-file row, want <= 120: run block buffers or read-back rows are allocated per run or per row again", perBytes)
	}
}
