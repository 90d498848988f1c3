package engine

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// keepSink keeps every row the join emits — a row must stay what it was
// after the join has moved on — and, whenever rows arrive, records the
// deepest recursion level among the run files then on disk (their names
// carry it: run<seq>_p<part>_l<level>_...).
type keepSink struct {
	mu    sync.Mutex
	sm    *storage.SpillManager
	rows  []types.Tuple
	depth int
}

func (s *keepSink) Emit(_ int, rows []types.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, rows...)
	if dir := s.sm.Dir(); dir != "" {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			var seq, part, level int
			if _, err := fmt.Sscanf(e.Name(), "run%04d_p%d_l%d_", &seq, &part, &level); err == nil {
				s.depth = max(s.depth, level)
			}
		}
	}
	return nil
}

// A read-back probe run decodes into one slab the stream refills per chunk,
// and a closed stream's slab serves the next run: sound only if no row the
// join emits still points into it. The join runs at a budget so far below
// its build side that the sub-partitions of the first read-back level spill
// again and level-2 runs are read back, with chunks of 16 rows so every run
// spans several chunks; its rows are held to refJoin only after it returns,
// when every slab has been overwritten many times over. Strings ride on both
// sides, so a string aliased into a pooled block would show as well.
func TestRealSpillSlabReuseMatchesReference(t *testing.T) {
	const (
		nodes = 2
		nRows = 6000
		nKeys = 3000
	)
	schema := func(cols ...string) *types.Schema {
		s := &types.Schema{}
		for i, c := range cols {
			kind := types.KindInt
			if i == len(cols)-1 {
				kind = types.KindString
			}
			s.Fields = append(s.Fields, types.Field{Name: c, Kind: kind})
		}
		return s
	}
	dimRows := make([]types.Tuple, nRows)
	factRows := make([]types.Tuple, nRows)
	for i := range dimRows {
		dimRows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % nKeys)), types.Str(fmt.Sprintf("dim-%d", i))}
		factRows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i * 7919 % nKeys)), types.Str(fmt.Sprintf("fact-%d", i%113))}
	}
	ctx := testCtx(t, nodes)
	ctx.ChunkRows = 16
	dim := registerTyped(t, ctx, "dim", []string{"id"}, schema("id", "k", "name"), dimRows)
	fact := registerTyped(t, ctx, "fact", []string{"id"}, schema("id", "fk", "tag"), factRows)
	ctx.Cluster.SetMemoryPerNodeBytes(dim.ByteSize() / nodes / 400)
	sm, _ := realSpillCtx(t, ctx)

	build, err := ScanSource(ctx, dim, "d", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ScanSource(ctx, fact, "f", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &keepSink{sm: sm}
	mk := func(*types.Schema, []int) (Sink, error) { return sink, nil }
	if err := HashJoinStream(ctx, build, probe, []string{"d.k"}, []string{"f.fk"}, false, mk); err != nil {
		t.Fatal(err)
	}
	if sink.depth < 2 {
		t.Fatalf("deepest run level on disk while rows were emitted: %d, want >= 2 — the budget no longer forces a level-2 read-back", sink.depth)
	}

	// Only now, with the join returned, compare.
	var got []string
	for _, row := range sink.rows {
		got = append(got, row.String())
	}
	ref := refJoin(refHash, refInput{parts: fact.Parts, keys: []int{1}}, refInput{parts: dim.Parts, keys: []int{1}}, false)
	var want []string
	for _, part := range ref {
		for _, row := range part {
			want = append(want, row.String())
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if len(want) != nRows*nRows/nKeys {
		t.Fatalf("reference has %d rows, want %d", len(want), nRows*nRows/nKeys)
	}
	rowsEqual(t, got, want)
}
