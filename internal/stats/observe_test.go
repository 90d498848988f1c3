package stats

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"dynopt/internal/types"
)

// observeValueRef is the per-value observation ObserveCol replaced, kept as
// the reference: one HLL add per value, and one quantile insert per numeric
// value when the collector keeps a histogram.
func observeValueRef(f *FieldStats, v types.Value) {
	if v.IsNull() {
		f.Nulls++
		return
	}
	f.Count++
	f.Distinct.Add(v.Hash())
	if fv, ok := v.AsFloat(); ok {
		f.numeric = true
		if f.Quantiles != nil {
			f.Quantiles.Insert(fv)
		}
	}
}

// collectorKinds are the two constructors a collector comes from: online
// (no histogram) and ingestion (with one).
var collectorKinds = []struct {
	name string
	new  func(string) *DatasetStats
}{{"online", NewDatasetStats}, {"ingest", NewIngestStats}}

// observeTupleRef is the row-major walk the column-wise one replaced: every
// collected field of one row, then the next row.
func observeTupleRef(d *DatasetStats, sch *types.Schema, t types.Tuple, only map[string]bool) {
	d.RecordCount++
	d.ByteSize += int64(t.EncodedSize())
	for i, f := range sch.Fields {
		if only != nil && !only[f.Name] {
			continue
		}
		observeValueRef(d.Field(f.Name), t[i])
	}
}

func observeTestSchema() *types.Schema {
	return &types.Schema{Fields: []types.Field{
		{Name: "k", Kind: types.KindInt},
		{Name: "price", Kind: types.KindFloat},
		{Name: "tag", Kind: types.KindString},
		{Name: "mixed", Kind: types.KindInt},
		{Name: "sparse", Kind: types.KindInt},
	}}
}

// observeTestRows covers what a column can hold: ints, floats with NaN and
// both zeros, strings, a column whose kinds disagree, and one mostly NULL.
func observeTestRows(rng *rand.Rand, n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		price := types.Float(rng.NormFloat64() * 100)
		switch rng.Intn(40) {
		case 0:
			price = types.Float(math.NaN())
		case 1:
			price = types.Float(math.Copysign(0, -1))
		case 2:
			price = types.Null()
		}
		mixed := types.Int(int64(rng.Intn(50)))
		switch rng.Intn(3) {
		case 0:
			mixed = types.Str("s" + strconv.Itoa(rng.Intn(50)))
		case 1:
			mixed = types.Float(float64(rng.Intn(50)) + 0.5)
		}
		sparse := types.Null()
		if rng.Intn(10) == 0 {
			sparse = types.Int(int64(rng.Intn(1 << 30)))
		}
		rows[i] = types.Tuple{
			types.Int(int64(rng.Intn(100000))), price,
			types.Str("t" + strconv.Itoa(rng.Intn(300))), mixed, sparse,
		}
	}
	return rows
}

// TestObserveRowsMatchesRowMajorWalk: however the rows are cut into windows,
// observing them a column at a time leaves every sketch byte-identical to the
// row-major, value-at-a-time walk — restricted field sets included, and
// ObserveTuple (the one-row form) with them — for both kinds of collector.
func TestObserveRowsMatchesRowMajorWalk(t *testing.T) {
	sch := observeTestSchema()
	rng := rand.New(rand.NewSource(31))
	for _, kind := range collectorKinds {
		for _, n := range []int{0, 1, observeWindow - 1, observeWindow, observeWindow + 1, 399, 400, 401, 5000} {
			for _, only := range []map[string]bool{nil, {"k": true, "mixed": true}} {
				rows := observeTestRows(rng, n)
				want, byTuple, byCol := kind.new("d"), kind.new("d"), kind.new("d")
				for _, r := range rows {
					observeTupleRef(want, sch, r, only)
					byTuple.ObserveTuple(sch, r, only)
				}
				byCol.RecordCount, byCol.ByteSize = want.RecordCount, want.ByteSize
				for rest := rows; len(rest) > 0; {
					w := 1 + rng.Intn(min(len(rest), 1500))
					byCol.ObserveRows(sch, rest[:w], only)
					rest = rest[w:]
				}
				byCol.ObserveRows(sch, nil, only)
				ref := want.Encode(nil)
				if !bytes.Equal(byTuple.Encode(nil), ref) {
					t.Errorf("%s, %d rows, only=%v: ObserveTuple differs from the row-major reference", kind.name, n, only)
				}
				if !bytes.Equal(byCol.Encode(nil), ref) {
					t.Errorf("%s, %d rows, only=%v: ObserveRows differs from the row-major reference", kind.name, n, only)
				}
			}
		}
	}
}

// TestObserveColNaNCountsButHasNoRank: a NaN is an observation and a distinct
// value, and the histogram never sees it.
func TestObserveColNaNCountsButHasNoRank(t *testing.T) {
	fs := newFieldStats(true)
	observe(fs, types.Float(1), types.Float(math.NaN()), types.Float(3), types.Null())
	if fs.Count != 3 || fs.Nulls != 1 || !fs.Numeric() {
		t.Errorf("count %d nulls %d numeric %v, want 3, 1, true", fs.Count, fs.Nulls, fs.Numeric())
	}
	if got := fs.Quantiles.Count(); got != 2 {
		t.Errorf("quantile sketch holds %d values, want 2", got)
	}
	if mx, _ := fs.Quantiles.Max(); mx != 3 {
		t.Errorf("max %v, want 3", mx)
	}
	if d := fs.DistinctCount(); d != 3 {
		t.Errorf("distinct %d, want 3", d)
	}
}

// TestObserveColWarmDoesNotAllocate: a warm collector takes a 1024-row window
// — nulls, numbers, flushes and all — without allocating: the value window is
// on the stack and the sketches reuse their storage. Both kinds of collector.
func TestObserveColWarmDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rows := observeTestRows(rng, 1024)
	for _, histogram := range []bool{true, false} {
		for c, f := range observeTestSchema().Fields {
			fs := newFieldStats(histogram)
			for i := 0; i < 60; i++ {
				fs.ObserveCol(rows, c)
			}
			if allocs := testing.AllocsPerRun(20, func() { fs.ObserveCol(rows, c) }); allocs != 0 {
				t.Errorf("histogram %v, column %s: %.2f allocations per 1024-row window, want 0", histogram, f.Name, allocs)
			}
		}
	}
}
