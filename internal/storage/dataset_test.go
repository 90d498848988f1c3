package storage

import (
	"bytes"
	"testing"
	"testing/quick"

	"dynopt/internal/stats"
	"dynopt/internal/types"
)

func intSchema(cols ...string) *types.Schema {
	s := &types.Schema{}
	for _, c := range cols {
		s.Fields = append(s.Fields, types.Field{Name: c, Kind: types.KindInt})
	}
	return s
}

func genRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 10))}
	}
	return rows
}

func TestBuildPartitionsAllRows(t *testing.T) {
	sch := intSchema("id", "grp")
	ds, st, err := Build("t", sch, []string{"id"}, genRows(1000), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ds.RowCount() != 1000 {
		t.Errorf("RowCount = %d", ds.RowCount())
	}
	if len(ds.Parts) != 4 {
		t.Errorf("partitions = %d", len(ds.Parts))
	}
	// Hash partitioning should be roughly even.
	for p, part := range ds.Parts {
		if len(part) < 150 || len(part) > 350 {
			t.Errorf("partition %d has %d rows (skewed)", p, len(part))
		}
	}
	if st.RecordCount != 1000 {
		t.Errorf("stats rows = %d", st.RecordCount)
	}
	d := st.Field("id").DistinctCount()
	if d < 950 || d > 1050 {
		t.Errorf("id distinct = %d", d)
	}
	if g := st.Field("grp").DistinctCount(); g < 9 || g > 11 {
		t.Errorf("grp distinct = %d", g)
	}
	if ds.ByteSize() != 1000*18 {
		t.Errorf("ByteSize = %d", ds.ByteSize())
	}
}

// TestBuildStatsCarryHistograms: ingestion is where the quantile sketch is
// built — every field of Build's statistics has one, over every non-null
// numeric value — and the sidecar codec gives it back as stored.
func TestBuildStatsCarryHistograms(t *testing.T) {
	_, st, err := Build("t", intSchema("id", "grp"), []string{"id"}, genRows(1000), 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := stats.DecodeDatasetStats(st.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"id", "grp"} {
		q := st.Field(name).Quantiles
		if q == nil || q.Count() != 1000 {
			t.Fatalf("field %s: quantile sketch %v, want 1000 values", name, q)
		}
		if got := dec.Fields[name].Quantiles; got == nil || !bytes.Equal(got.Encode(nil), q.Encode(nil)) {
			t.Errorf("field %s: decoded quantile sketch differs from the stored one", name)
		}
	}
}

func TestBuildSamePKSamePartition(t *testing.T) {
	sch := intSchema("k", "v")
	rows := []types.Tuple{
		{types.Int(7), types.Int(1)},
		{types.Int(7), types.Int(2)},
		{types.Int(7), types.Int(3)},
	}
	ds, _, err := Build("t", sch, []string{"k"}, rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, p := range ds.Parts {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("same key spread over %d partitions", nonEmpty)
	}
}

func TestBuildRoundRobinWithoutPK(t *testing.T) {
	ds, _, err := Build("t", intSchema("a", "b"), nil, genRows(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range ds.Parts {
		if len(part) != 2 {
			t.Errorf("partition %d = %d rows, want 2 (round robin)", p, len(part))
		}
	}
}

func TestBuildErrors(t *testing.T) {
	sch := intSchema("a", "b")
	if _, _, err := Build("t", sch, []string{"missing"}, genRows(1), 2); err == nil {
		t.Error("bad pk did not error")
	}
	bad := []types.Tuple{{types.Int(1)}} // arity mismatch
	if _, _, err := Build("t", sch, nil, bad, 2); err == nil {
		t.Error("arity mismatch did not error")
	}
}

func TestBuildZeroPartsClamps(t *testing.T) {
	ds, _, err := Build("t", intSchema("a", "b"), nil, genRows(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Parts) != 1 {
		t.Errorf("partitions = %d", len(ds.Parts))
	}
}

func TestIndexLookup(t *testing.T) {
	sch := intSchema("id", "grp")
	ds, _, err := Build("t", sch, []string{"id"}, genRows(1000), 4)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(ds, "grp")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.HasIndex("grp") || ds.HasIndex("id") {
		t.Error("HasIndex wrong")
	}
	if idx.Partitions() != 4 {
		t.Errorf("index partitions = %d", idx.Partitions())
	}
	// Each grp value appears 100 times across all partitions.
	total := 0
	fi := ds.Schema.MustIndex("grp")
	for p := range ds.Parts {
		lo, hi := idx.Lookup(p, types.Int(3))
		for i := lo; i < hi; i++ {
			row := idx.Row(p, i)
			if ds.Parts[p][row][fi].I() != 3 {
				t.Fatalf("index returned wrong row: %v", ds.Parts[p][row])
			}
			total++
		}
	}
	if total != 100 {
		t.Errorf("grp=3 matches = %d, want 100", total)
	}
	// Missing key.
	for p := range ds.Parts {
		if lo, hi := idx.Lookup(p, types.Int(999999)); lo != hi {
			t.Errorf("missing key returned range [%d, %d)", lo, hi)
		}
	}
	// Out-of-range partition.
	if lo, hi := idx.Lookup(-1, types.Int(1)); lo != hi {
		t.Error("out-of-range partition lookup not empty")
	}
	if lo, hi := idx.Lookup(99, types.Int(1)); lo != hi {
		t.Error("out-of-range partition lookup not empty")
	}
}

func TestBuildIndexBadField(t *testing.T) {
	ds, _, _ := Build("t", intSchema("a", "b"), nil, genRows(10), 2)
	if _, err := BuildIndex(ds, "zz"); err == nil {
		t.Error("bad index field did not error")
	}
}

// Property: every row lands in exactly one partition and lookup-by-index
// agrees with a full scan.
func TestIndexAgreesWithScanProperty(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%500) + 10
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64((i * 7) % 13))}
		}
		ds, _, err := Build("t", intSchema("id", "k"), []string{"id"}, rows, 3)
		if err != nil {
			return false
		}
		idx, err := BuildIndex(ds, "k")
		if err != nil {
			return false
		}
		fi := ds.Schema.MustIndex("k")
		key := types.Int(int64(seed % 13))
		scan := 0
		for _, part := range ds.Parts {
			for _, row := range part {
				if row[fi].Equal(key) {
					scan++
				}
			}
		}
		viaIdx := 0
		for p := range ds.Parts {
			lo, hi := idx.Lookup(p, key)
			viaIdx += hi - lo
		}
		return scan == viaIdx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
