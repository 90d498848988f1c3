package stats

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"dynopt/internal/types"
)

func TestFieldStatsObserve(t *testing.T) {
	fs := NewFieldStats()
	for i := 0; i < 1000; i++ {
		observe(fs, types.Int(int64(i%100)))
	}
	observe(fs, types.Null())
	if fs.Count != 1000 {
		t.Errorf("Count = %d", fs.Count)
	}
	if fs.Nulls != 1 {
		t.Errorf("Nulls = %d", fs.Nulls)
	}
	d := fs.DistinctCount()
	if d < 95 || d > 105 {
		t.Errorf("DistinctCount = %d, want ~100", d)
	}
	if !fs.Numeric() {
		t.Error("Numeric() = false for int field")
	}
}

func TestFieldStatsStringsNotNumeric(t *testing.T) {
	fs := NewFieldStats()
	for i := 0; i < 50; i++ {
		observe(fs, types.Str("v"+strconv.Itoa(i)))
	}
	if fs.Numeric() {
		t.Error("Numeric() = true for string field")
	}
	if d := fs.DistinctCount(); d < 45 || d > 55 {
		t.Errorf("DistinctCount = %d", d)
	}
}

func TestFieldStatsMerge(t *testing.T) {
	a, b := NewFieldStats(), NewFieldStats()
	for i := 0; i < 500; i++ {
		observe(a, types.Int(int64(i)))
		observe(b, types.Int(int64(i+500)))
	}
	a.Merge(b)
	if a.Count != 1000 {
		t.Errorf("merged Count = %d", a.Count)
	}
	d := a.DistinctCount()
	if d < 950 || d > 1050 {
		t.Errorf("merged DistinctCount = %d", d)
	}
	a.Merge(nil)
	if a.Count != 1000 {
		t.Error("Merge(nil) changed count")
	}
}

// TestFieldStatsMergeMatchesOneStream: merging two histogram-less collectors
// leaves the counts, the numeric flag and the distinct sketch one collector
// fed both streams would have.
func TestFieldStatsMergeMatchesOneStream(t *testing.T) {
	a, b, both := NewFieldStats(), NewFieldStats(), NewFieldStats()
	for i := 0; i < 3000; i++ {
		v := types.Int(int64(i * 7 % 2000))
		if i%11 == 0 {
			v = types.Null()
		}
		if i%2 == 0 {
			observe(a, v)
		} else {
			observe(b, v)
		}
		observe(both, v)
	}
	a.Merge(b)
	if a.Quantiles != nil {
		t.Error("merged collector holds a quantile sketch")
	}
	if a.Count != both.Count || a.Nulls != both.Nulls || a.Numeric() != both.Numeric() {
		t.Errorf("merged count %d nulls %d numeric %v, one stream %d %d %v",
			a.Count, a.Nulls, a.Numeric(), both.Count, both.Nulls, both.Numeric())
	}
	if !bytes.Equal(a.Distinct.Encode(nil), both.Distinct.Encode(nil)) {
		t.Error("merged distinct sketch differs from one collector fed both streams")
	}
}

// TestOnlyIngestCollectorsBuildHistograms: NewDatasetStats collectors keep
// no quantile sketch; NewIngestStats collectors do.
func TestOnlyIngestCollectorsBuildHistograms(t *testing.T) {
	sch := types.NewSchema(types.Field{Name: "x", Kind: types.KindInt})
	row := types.Tuple{types.Int(1)}
	online, ingest := NewDatasetStats("d"), NewIngestStats("d")
	online.ObserveTuple(sch, row, nil)
	ingest.ObserveTuple(sch, row, nil)
	if q := online.Field("x").Quantiles; q != nil {
		t.Errorf("NewDatasetStats collector holds a quantile sketch (%v)", q)
	}
	if q := NewFieldStats().Quantiles; q != nil {
		t.Errorf("NewFieldStats collector holds a quantile sketch (%v)", q)
	}
	if q := ingest.Field("x").Quantiles; q == nil || q.Count() != 1 {
		t.Errorf("NewIngestStats collector's quantile sketch = %v, want one value", q)
	}
}

func TestDatasetStatsObserveTuple(t *testing.T) {
	sch := types.NewSchema(
		types.Field{Qualifier: "o", Name: "k", Kind: types.KindInt},
		types.Field{Qualifier: "o", Name: "s", Kind: types.KindString},
	)
	ds := NewDatasetStats("orders")
	for i := 0; i < 100; i++ {
		ds.ObserveTuple(sch, types.Tuple{types.Int(int64(i)), types.Str("x")}, nil)
	}
	if ds.RecordCount != 100 {
		t.Errorf("RecordCount = %d", ds.RecordCount)
	}
	if ds.ByteSize != 100*(9+2) {
		t.Errorf("ByteSize = %d", ds.ByteSize)
	}
	if ds.Field("k").Count != 100 || ds.Field("s").Count != 100 {
		t.Error("field counts wrong")
	}
	if ds.AvgRowBytes() != 11 {
		t.Errorf("AvgRowBytes = %d", ds.AvgRowBytes())
	}
}

func TestDatasetStatsObserveTupleRestricted(t *testing.T) {
	sch := types.NewSchema(
		types.Field{Name: "a", Kind: types.KindInt},
		types.Field{Name: "b", Kind: types.KindInt},
	)
	ds := NewDatasetStats("t")
	only := map[string]bool{"a": true}
	ds.ObserveTuple(sch, types.Tuple{types.Int(1), types.Int(2)}, only)
	if ds.Field("a").Count != 1 {
		t.Error("restricted field not observed")
	}
	if fs, ok := ds.Fields["b"]; ok && fs.Count != 0 {
		t.Error("excluded field was observed")
	}
}

func TestDatasetStatsMergeAndString(t *testing.T) {
	a, b := NewDatasetStats("d"), NewDatasetStats("d")
	sch := types.NewSchema(types.Field{Name: "x", Kind: types.KindInt})
	a.ObserveTuple(sch, types.Tuple{types.Int(1)}, nil)
	b.ObserveTuple(sch, types.Tuple{types.Int(2)}, nil)
	a.Merge(b)
	a.Merge(nil)
	if a.RecordCount != 2 {
		t.Errorf("RecordCount = %d", a.RecordCount)
	}
	if s := a.String(); !strings.Contains(s, "rows=2") || !strings.Contains(s, "x:") {
		t.Errorf("String() = %q", s)
	}
}

func TestDatasetStatsAvgRowBytesEmpty(t *testing.T) {
	if NewDatasetStats("e").AvgRowBytes() != 1 {
		t.Error("empty AvgRowBytes != 1")
	}
}

func TestRegistryPutGetDropNames(t *testing.T) {
	r := NewRegistry()
	if r.Get("a") != nil {
		t.Error("Get on empty registry != nil")
	}
	r.Put(NewDatasetStats("b"))
	r.Put(NewDatasetStats("a"))
	if r.Get("a") == nil || r.Get("b") == nil {
		t.Error("Get after Put failed")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	r.Drop("a")
	if r.Get("a") != nil {
		t.Error("Drop did not remove")
	}
}

func TestRegistryClone(t *testing.T) {
	r := NewRegistry()
	r.Put(NewDatasetStats("x"))
	c := r.Clone()
	c.Put(NewDatasetStats("y"))
	if r.Get("y") != nil {
		t.Error("Clone shares map with original")
	}
	if c.Get("x") == nil {
		t.Error("Clone lost entries")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				r.Put(NewDatasetStats("d" + strconv.Itoa(g)))
				r.Get("d0")
				r.Names()
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// observe feeds values to fs as a one-column window of rows.
func observe(fs *FieldStats, vs ...types.Value) {
	rows := make([]types.Tuple, len(vs))
	for i, v := range vs {
		rows[i] = types.Tuple{v}
	}
	fs.ObserveCol(rows, 0)
}
