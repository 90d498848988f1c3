package engine

import (
	"io"
	"slices"
	"testing"

	"dynopt/internal/cluster"
	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// The join filter inside the paged scan (pagedCursor.pushFilter): a probe
// that does not move hands its join's filter to its page cursor, which drops
// a row before building it and reports it as Chunk.Skipped. A paged join must
// return refJoin's rows and meter exactly what the same join over the
// resident twin meters.

// skipCursor replays fixed chunks, then io.EOF.
type skipCursor struct{ chunks []Chunk }

func (c *skipCursor) Next() (*Chunk, error) {
	if len(c.chunks) == 0 {
		return nil, io.EOF
	}
	ch := &c.chunks[0]
	c.chunks = c.chunks[1:]
	return ch, nil
}

// A cursor's skipped rows reach the probe loop through localStream and are
// counted as probed, also on a chunk that holds no row.
func TestLocalStreamCarriesSkipped(t *testing.T) {
	ctx := testCtx(t, 1)
	build := []types.Tuple{{types.Int(1)}, {types.Int(2)}}
	ht := buildTable(build, types.HashKeysInto(build, []int{0}, nil), []int{0})
	st := &localStream{cur: &skipCursor{chunks: []Chunk{
		{Rows: []types.Tuple{{types.Int(1)}, {types.Int(7)}}, Skipped: 3},
		{Skipped: 4},
	}}}
	var sink countSink
	if err := probePartition(ctx, 0, ht, nil, 0, st, -1, []int{0}, false, &sink); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cluster.Acct().Snapshot().ProbeRows; got != 2+3+4 {
		t.Errorf("ProbeRows = %d, want 9: the cursor's skipped rows were lost on the way", got)
	}
	if got := sink.rows.Load(); got != 1 {
		t.Errorf("%d output rows, want 1", got)
	}
}

const (
	pushParts    = 3
	pushPageRows = 8
	pushOutside  = 5000 // probe keys from here up lie above the build side's range
)

// pushFixture loads build b(k, v) and probe p(k, pay), both partitioned on k,
// resident into one context and paged, pushPageRows rows a page, into a
// second. Build keys are the even ints in [0, 200). The probe holds ints in
// [0, 400) — most of them never in the build side — and NULLs, placed so that
// partition 0 holds only NULLs and keys above the build side's range: the
// filter rejects every row there. One integral float equal to a build key and
// one string make their pages' key columns fallback-encoded; the float must
// still join.
func pushFixture(t *testing.T) (resident, paged *Context) {
	t.Helper()
	schema := func(second string) *types.Schema {
		return types.NewSchema(types.Field{Name: "k", Kind: types.KindInt}, types.Field{Name: second, Kind: types.KindInt})
	}
	var cands []types.Tuple
	add := func(k types.Value) { cands = append(cands, types.Tuple{k, types.Int(int64(len(cands)))}) }
	for i := range 400 {
		add(types.Int(int64(i)))
	}
	for i := range 100 {
		add(types.Int(pushOutside + int64(i)))
	}
	for range 10 {
		add(types.Null())
	}
	for i := range 20 {
		add(types.Float(float64(10 * i)))
	}
	for i := range 20 {
		add(types.Str("s" + string(rune('a'+i))))
	}
	// Where each candidate lands: partitioning is by key hash, so a subset
	// lands the same way.
	probe, _, err := storage.Build("cands", schema("pay"), []string{"k"}, cands, pushParts)
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Tuple
	var floats, strs int
	for p, part := range probe.Parts {
		for _, row := range part {
			k := row[0]
			keep := false
			switch {
			case k.K == types.KindNull:
				keep = true
			case p == 0:
				keep = k.K == types.KindInt && k.I() >= pushOutside
			case k.K == types.KindInt:
				keep = k.I() < pushOutside
			case k.K == types.KindFloat:
				keep, floats = floats == 0, floats+1
			case k.K == types.KindString:
				keep, strs = strs == 0, strs+1
			}
			if keep {
				rows = append(rows, row)
			}
		}
	}
	if floats == 0 || strs == 0 {
		t.Fatal("fixture: no float or string key landed outside partition 0")
	}
	slices.SortFunc(rows, func(a, b types.Tuple) int { return int(a[1].I() - b[1].I()) })
	var build []types.Tuple
	for i := range 100 {
		build = append(build, types.Tuple{types.Int(int64(2 * i)), types.Int(int64(1000 + i))})
	}
	resident = testCtx(t, pushParts)
	resident.ChunkRows = 5
	registerTyped(t, resident, "b", []string{"k"}, schema("v"), build)
	registerTyped(t, resident, "p", []string{"k"}, schema("pay"), rows)
	paged = pagedCopy(t, resident, "p", pushPageRows, 1<<16)
	registerTyped(t, paged, "b", []string{"k"}, schema("v"), build)
	return resident, paged
}

// pushJoin is one join of b and p with the probe p staying where it is.
type pushJoin struct {
	name    string
	algo    refAlgo
	filter  expr.Expr // the probe scan's predicate
	project []string  // the probe scan's projection
}

func (j pushJoin) run(ctx *Context) (*Relation, error) {
	b, _ := ctx.Catalog.Get("b")
	p, _ := ctx.Catalog.Get("p")
	return collectJoin(pushParts, func(mk SinkFactory) error {
		build, err := ScanSource(ctx, b, "b", nil, nil)
		if err != nil {
			return err
		}
		probe, err := ScanSource(ctx, p, "p", j.filter, j.project)
		if err != nil {
			return err
		}
		if j.algo == refBroadcast {
			return BroadcastJoinStream(ctx, build, probe, []string{"b.k"}, []string{"p.k"}, false, mk)
		}
		return HashJoinStream(ctx, build, probe, []string{"b.k"}, []string{"p.k"}, false, mk)
	})
}

// expected is refJoin over the resident scans of both sides.
func (j pushJoin) expected(t *testing.T, ctx *Context) []string {
	t.Helper()
	b, err := ScanByName(ctx, "b", "b", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ScanByName(ctx, "p", "p", j.filter, j.project)
	if err != nil {
		t.Fatal(err)
	}
	pk, _ := p.Schema.Index("p.k")
	return relRows(&Relation{Parts: refJoin(j.algo, refInput{parts: p.Parts, keys: []int{pk}},
		refInput{parts: b.Parts, keys: []int{0}}, false)})
}

var pushJoins = []pushJoin{
	{name: "broadcast", algo: refBroadcast},
	{name: "broadcast/filtered-projected", algo: refBroadcast,
		filter:  &expr.Compare{Op: expr.CmpNe, L: &expr.Column{Qualifier: "p", Name: "pay"}, R: &expr.Literal{Val: types.Int(3)}},
		project: []string{"pay", "k"}},
	{name: "hash-prepartitioned", algo: refHash},
	{name: "hash-prepartitioned/projected", algo: refHash, project: []string{"pay", "k"}},
}

func TestPagedJoinFilterPushdown(t *testing.T) {
	for _, j := range pushJoins {
		t.Run(j.name, func(t *testing.T) {
			var counters [2]cluster.Snapshot
			for i, paged := range []bool{false, true} {
				resident, pctx := pushFixture(t)
				ctx := resident
				if paged {
					ctx = pctx
				}
				out, err := j.run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				counters[i] = ctx.Cluster.Acct().Snapshot()
				got, want := relRows(out), j.expected(t, resident)
				if !slices.Equal(got, want) {
					t.Fatalf("paged=%v: %d rows %v, refJoin has %d: %v", paged, len(got), got, len(want), want)
				}
				pk, _ := out.Schema.Index("p.k")
				if !slices.ContainsFunc(slices.Concat(out.Parts...), func(r types.Tuple) bool { return r[pk].K == types.KindFloat }) {
					t.Errorf("paged=%v: the float key on a fallback-encoded page did not join", paged)
				}
			}
			if counters[0] != counters[1] {
				t.Errorf("counters diverged:\n resident %+v\n paged    %+v", counters[0], counters[1])
			}
		})
	}
}

// openLocal hands the filter to a paged probe's cursor only where no one reads
// chunk bytes; the cursor then emits only rows the filter passes (or rows on a
// page whose key column is fallback-encoded) and counts the rest as skipped —
// in a partition where it passes nothing, as one chunk with no rows.
func TestPagedCursorAppliesPushedFilter(t *testing.T) {
	resident, paged := pushFixture(t)
	b, _ := resident.Catalog.Get("b")
	f := newKeyFilter(b.Parts, []int{0})
	rp, _ := resident.Catalog.Get("p")
	for _, tc := range []struct {
		name      string
		ctx       *Context
		wantBytes bool
		pushed    bool
	}{
		{"paged", paged, false, true},
		{"paged/wantBytes", paged, true, false},
		{"resident", resident, false, false},
	} {
		p, _ := tc.ctx.Catalog.Get("p")
		src, err := ScanSource(tc.ctx, p, "p", nil, []string{"pay", "k"})
		if err != nil {
			t.Fatal(err)
		}
		for part := range pushParts {
			st, rest, err := openLocal(src, part, f, []int{1}, tc.wantBytes)
			if err != nil {
				t.Fatal(err)
			}
			if pushed := rest == nil; pushed != tc.pushed {
				t.Fatalf("%s: partition %d: filter pushed into the cursor = %v, want %v", tc.name, part, pushed, tc.pushed)
			}
			var live, skipped, chunks, failing int
			for {
				c, err := st.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				chunks++
				live, skipped = live+c.Live(), skipped+c.Skipped
				col := 1 // p.k in the projected schema
				if c.Proj != nil {
					col = c.Proj[col]
				}
				for k := range c.Live() {
					if !f.passes(c.Rows[c.liveAt(k)][col]) {
						failing++
					}
				}
			}
			stored := len(rp.Parts[part])
			if live+skipped != stored {
				t.Errorf("%s: partition %d: %d rows emitted and %d skipped, the partition holds %d", tc.name, part, live, skipped, stored)
			}
			switch {
			case !tc.pushed:
				if skipped != 0 {
					t.Errorf("%s: partition %d: %d rows skipped by a cursor that has no filter", tc.name, part, skipped)
				}
			case part == 0:
				if live != 0 || chunks != 1 {
					t.Errorf("%s: partition 0: %d rows in %d chunks, want every row skipped in one empty chunk", tc.name, live, chunks)
				}
			default:
				// Only a fallback-encoded page lets a failing row through, and
				// it holds at most pushPageRows of them.
				if skipped == 0 || failing >= pushPageRows {
					t.Errorf("%s: partition %d: %d skipped, %d emitted rows fail the filter", tc.name, part, skipped, failing)
				}
			}
		}
	}
}
