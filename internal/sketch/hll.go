package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog distinct-value sketch over pre-hashed 64-bit
// observations. Precision p gives m = 2^p registers and a relative standard
// error of about 1.04/sqrt(m); p = 12 (4096 registers, ~1.6% error) is the
// default used by the statistics framework.
type HLL struct {
	p         uint8
	registers []uint8
}

// DefaultHLLPrecision is the register precision used by the statistics
// framework (4096 registers, ≈1.6% standard error).
const DefaultHLLPrecision = 12

// NewHLL returns a HyperLogLog sketch with precision p in [4, 18].
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 18 {
		panic(fmt.Sprintf("sketch: invalid HLL precision %d", p))
	}
	return &HLL{p: p, registers: make([]uint8, 1<<p)}
}

// Precision returns the register precision.
func (h *HLL) Precision() uint8 { return h.p }

// fmix64 is the murmur3 avalanche finalizer. Callers feed FNV hashes whose
// high bits mix poorly for short keys; without re-mixing, register indexes
// (taken from the top bits) collapse and the estimate craters.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add records one pre-hashed observation. It is written to stay within the
// inliner's budget: the statistics column loop calls it once per value.
//
//dynopt:hotpath
func (h *HLL) Add(hash uint64) {
	hash = fmix64(hash)
	// The guard bit below the index bits bounds LeadingZeros.
	rho := uint8(bits.LeadingZeros64(hash<<h.p|1<<(h.p-1))) + 1
	if r := &h.registers[hash>>(64-h.p)]; rho > *r {
		*r = rho
	}
}

// Estimate returns the approximate number of distinct observations added.
func (h *HLL) Estimate() int64 {
	m := float64(len(h.registers))
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := hllAlpha(len(h.registers))
	raw := alpha * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		raw = m * math.Log(m/float64(zeros))
	}
	return int64(raw + 0.5)
}

// Merge folds other into h by taking the register-wise maximum. Both sketches
// must share a precision.
func (h *HLL) Merge(other *HLL) {
	if other == nil {
		return
	}
	if other.p != h.p {
		panic(fmt.Sprintf("sketch: HLL precision mismatch %d vs %d", h.p, other.p))
	}
	for i, r := range other.registers {
		if r > h.registers[i] {
			h.registers[i] = r
		}
	}
}

// Clone returns an independent copy of the sketch.
func (h *HLL) Clone() *HLL {
	out := &HLL{p: h.p, registers: make([]uint8, len(h.registers))}
	copy(out.registers, h.registers)
	return out
}

func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// String summarizes the sketch for debugging.
func (h *HLL) String() string {
	return fmt.Sprintf("HLL(p=%d, estimate=%d)", h.p, h.Estimate())
}
