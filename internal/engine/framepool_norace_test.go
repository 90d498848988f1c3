//go:build !race

package engine

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestSecondExchangeAllocatesNoFrames: the frames an exchange ends with go
// to the pool, and an exchange of the same shape draws every frame it uses
// from there. (Not under -race: the detector makes sync.Pool drop a quarter
// of what it is given. One P and no collection, so the pool is exact.)
func TestSecondExchangeAllocatesNoFrames(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fx := newScatterFixture(t)
	frames := func() map[unsafe.Pointer]bool {
		seen := map[unsafe.Pointer]bool{}
		rows, sum, _, err := fx.run(t, func(p int, c *Chunk) {
			seen[unsafe.Pointer(unsafe.SliceData(c.Rows))] = true
		})
		if err != nil || rows != fx.rows || sum != fx.sum {
			t.Fatalf("exchange: %d rows, sum %d, err %v", rows, sum, err)
		}
		return seen
	}
	first := frames()
	for again := 0; again < 3; again++ {
		for f := range frames() {
			if !first[f] {
				t.Fatalf("exchange %d shipped rows through a frame the first one did not leave in the pool (%d frames pooled)", again+2, len(first))
			}
		}
	}
}
