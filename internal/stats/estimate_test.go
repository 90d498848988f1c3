package stats

import (
	"math"
	"testing"
	"testing/quick"

	"dynopt/internal/types"
)

func TestJoinCardinalityFormula(t *testing.T) {
	cases := []struct {
		sa, sb, da, db int64
		want           int64
	}{
		// |A|*|B|/max(U(A.k),U(B.k))
		{1000, 500, 1000, 100, 500}, // PK/FK: |B| survives
		{1000, 500, 100, 500, 1000}, // FK side bigger distinct
		{100, 100, 10, 10, 1000},    // many-to-many blowup
		{0, 100, 1, 1, 0},           // empty input
		{100, 0, 1, 1, 0},           // empty input
		{10, 10, 0, 0, 100},         // degenerate distincts clamp to 1
		{1, 1, 1000000, 1000000, 1}, // floor at 1
	}
	for _, c := range cases {
		if got := JoinCardinality(c.sa, c.sb, c.da, c.db); got != c.want {
			t.Errorf("JoinCardinality(%d,%d,%d,%d) = %d, want %d",
				c.sa, c.sb, c.da, c.db, got, c.want)
		}
	}
}

func TestJoinCardinalityOverflowSaturates(t *testing.T) {
	got := JoinCardinality(math.MaxInt64/4, math.MaxInt64/4, 1, 1)
	if got != math.MaxInt64/2 {
		t.Errorf("overflow result = %d", got)
	}
}

func TestJoinCardinalitySymmetryProperty(t *testing.T) {
	f := func(sa, sb, da, db int32) bool {
		a, b := int64(abs32(sa))+1, int64(abs32(sb))+1
		x, y := int64(abs32(da))+1, int64(abs32(db))+1
		return JoinCardinality(a, b, x, y) == JoinCardinality(b, a, y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		if x == math.MinInt32 {
			return math.MaxInt32
		}
		return -x
	}
	return x
}

func TestCompositeDistinct(t *testing.T) {
	cases := []struct {
		size int64
		ds   []int64
		want int64
	}{
		{1000, []int64{10, 10}, 100},
		{50, []int64{10, 10}, 50}, // capped at relation size
		{1000, nil, 1},            // no keys
		{1000, []int64{0}, 1},     // degenerate distinct
		{0, []int64{5}, 5},        // unknown size: no cap
	}
	for _, c := range cases {
		if got := CompositeDistinct(c.size, c.ds); got != c.want {
			t.Errorf("CompositeDistinct(%d,%v) = %d, want %d", c.size, c.ds, got, c.want)
		}
	}
}

func TestCompositeDistinctSaturation(t *testing.T) {
	got := CompositeDistinct(0, []int64{math.MaxInt64 / 2, math.MaxInt64 / 2})
	if got != math.MaxInt64 {
		t.Errorf("saturating product = %d", got)
	}
}

func uniformField(n, distinct int) *FieldStats {
	fs := NewFieldStats()
	for i := 0; i < n; i++ {
		observe(fs, types.Int(int64(i%distinct)))
	}
	return fs
}

func TestEstimateSelectivityRangeShapes(t *testing.T) {
	fs := uniformField(10000, 10000) // values 0..9999 uniform
	cases := []struct {
		op     RangeOp
		lo, hi float64
		want   float64
		tol    float64
	}{
		{OpLt, 5000, 0, 0.5, 0.05},
		{OpLe, 4999, 0, 0.5, 0.05},
		{OpGt, 5000, 0, 0.5, 0.05},
		{OpGe, 5000, 0, 0.5, 0.05},
		{OpBetween, 2500, 7499, 0.5, 0.05},
		{OpBetween, 0, 9999, 1.0, 0.05},
		{OpEq, 42, 0, 1.0 / 10000, 0.01},
	}
	for _, c := range cases {
		got := EstimateSelectivity(fs, c.op, c.lo, c.hi)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("op=%v lo=%v hi=%v: sel=%v want %v±%v", c.op, c.lo, c.hi, got, c.want, c.tol)
		}
	}
}

func TestEstimateSelectivitySkewedEquality(t *testing.T) {
	fs := NewFieldStats()
	for i := 0; i < 9000; i++ {
		observe(fs, types.Int(7))
	}
	for i := 0; i < 1000; i++ {
		observe(fs, types.Int(int64(100+i)))
	}
	got := EstimateSelectivity(fs, OpEq, 7, 0)
	if got < 0.5 {
		t.Errorf("skewed OpEq selectivity = %v, want high (~0.9)", got)
	}
	// Independence-assuming default would have said 1/10 — this is the gap
	// the dynamic approach exploits.
}

func TestEstimateSelectivityDefaults(t *testing.T) {
	if got := EstimateSelectivity(nil, OpEq, 1, 0); got != DefaultEqSelectivity {
		t.Errorf("nil stats OpEq = %v", got)
	}
	if got := EstimateSelectivity(nil, OpLt, 1, 0); got != DefaultIneqSelectivity {
		t.Errorf("nil stats OpLt = %v", got)
	}
	if got := EstimateSelectivity(nil, OpNe, 1, 0); got != 1-DefaultEqSelectivity {
		t.Errorf("nil stats OpNe = %v", got)
	}
	// String field: no histogram, defaults apply.
	fs := NewFieldStats()
	observe(fs, types.Str("a"))
	if got := EstimateSelectivity(fs, OpEq, 1, 0); got != DefaultEqSelectivity {
		t.Errorf("string field OpEq = %v", got)
	}
	// Empty field.
	if got := EstimateSelectivity(NewFieldStats(), OpGt, 1, 0); got != DefaultIneqSelectivity {
		t.Errorf("empty field OpGt = %v", got)
	}
}

func TestEstimateSelectivityNeComplement(t *testing.T) {
	fs := uniformField(1000, 10)
	eq := EstimateSelectivity(fs, OpEq, 3, 0)
	ne := EstimateSelectivity(fs, OpNe, 3, 0)
	if math.Abs(eq+ne-1) > 1e-9 {
		t.Errorf("eq=%v ne=%v don't complement", eq, ne)
	}
}

func TestEstimateSelectivityClamped(t *testing.T) {
	fs := uniformField(100, 100)
	for _, op := range []RangeOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween} {
		got := EstimateSelectivity(fs, op, -1e18, 1e18)
		if got < 0 || got > 1 {
			t.Errorf("op=%v selectivity %v out of [0,1]", op, got)
		}
	}
}
