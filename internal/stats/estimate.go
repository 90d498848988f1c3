package stats

import (
	"math"
)

// Selinger default selectivities ([28], used when an optimizer has no usable
// statistics — UDFs, parameters, or missing histograms). The dynamic
// optimizer never needs them because it executes such predicates first; the
// static cost-based baseline does.
const (
	DefaultEqSelectivity   = 1.0 / 10
	DefaultIneqSelectivity = 1.0 / 3
	DefaultUDFSelectivity  = 1.0 / 10
)

// JoinCardinality implements formula (1) of §4:
//
//	|A ⋈k B| = S(A) · S(B) / max(U(A.k), U(B.k))
//
// where S is the qualified record count immediately before the join and U is
// the distinct count of the join key. Composite keys pass the max of the
// per-field distinct products, capped at the input sizes (the standard
// System-R generalization).
func JoinCardinality(sizeA, sizeB int64, distinctA, distinctB int64) int64 {
	if sizeA <= 0 || sizeB <= 0 {
		return 0
	}
	den := distinctA
	if distinctB > den {
		den = distinctB
	}
	if den < 1 {
		den = 1
	}
	est := float64(sizeA) * float64(sizeB) / float64(den)
	if est < 0 || est > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	if est < 1 {
		// A join between non-empty inputs is estimated at >= 1 so orderings
		// remain comparable.
		return 1
	}
	return int64(est)
}

// CompositeDistinct combines per-field distinct counts of a composite join
// key, capped at the relation size: distinct(k1,k2,..) <= min(prod d_i, S).
func CompositeDistinct(size int64, distincts []int64) int64 {
	if len(distincts) == 0 {
		return 1
	}
	prod := int64(1)
	for _, d := range distincts {
		if d < 1 {
			d = 1
		}
		if prod > size && size > 0 {
			prod = size
			break
		}
		// Saturating multiply.
		if d != 0 && prod > math.MaxInt64/d {
			prod = math.MaxInt64
			break
		}
		prod *= d
	}
	if size > 0 && prod > size {
		prod = size
	}
	if prod < 1 {
		prod = 1
	}
	return prod
}

// RangeOp enumerates the comparison shapes the histogram estimator supports.
type RangeOp int

// Comparison shapes.
const (
	OpEq RangeOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
)

// EstimateSelectivity estimates the fraction of a field's rows satisfying a
// comparison against fixed value(s), using the field's equi-height histogram
// (GK sketch). Falls back to Selinger defaults when the field has no numeric
// histogram — a non-numeric field, or one collected without a quantile
// sketch, such as a join temp's key under a predicate that reconstruction
// carried onto the temp (see the package comment). Returned selectivity is
// clamped to [0, 1].
func EstimateSelectivity(fs *FieldStats, op RangeOp, lo, hi float64) float64 {
	if fs == nil || fs.Count == 0 || !fs.Numeric() || fs.Quantiles == nil {
		return defaultFor(op)
	}
	n := float64(fs.Count)
	var matched float64
	switch op {
	case OpEq:
		est := fs.Quantiles.EstimateEquals(lo)
		// Never estimate below the uniform-distinct floor; equality on a
		// key column should estimate ~1 row, not 0.
		floor := n / float64(max(fs.DistinctCount(), 1))
		matched = math.Max(float64(est), math.Min(floor, n))
	case OpNe:
		return clamp01(1 - EstimateSelectivity(fs, OpEq, lo, hi))
	case OpLt:
		matched = float64(fs.Quantiles.EstimateRange(math.Inf(-1), math.Nextafter(lo, math.Inf(-1))))
	case OpLe:
		matched = float64(fs.Quantiles.EstimateRange(math.Inf(-1), lo))
	case OpGt:
		matched = float64(fs.Quantiles.EstimateRange(math.Nextafter(lo, math.Inf(1)), math.Inf(1)))
	case OpGe:
		matched = float64(fs.Quantiles.EstimateRange(lo, math.Inf(1)))
	case OpBetween:
		matched = float64(fs.Quantiles.EstimateRange(lo, hi))
	default:
		return defaultFor(op)
	}
	return clamp01(matched / n)
}

func defaultFor(op RangeOp) float64 {
	switch op {
	case OpEq:
		return DefaultEqSelectivity
	case OpNe:
		return 1 - DefaultEqSelectivity
	default:
		return DefaultIneqSelectivity
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
