package engine

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dynopt/internal/faults"
	"dynopt/internal/stats"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// TestSinkFieldMajorMatchesRowMajor: the sink observes each chunk a field at
// a time; the statistics it registers — counts, nulls, numeric flags and
// distinct-sketch bytes — must equal the row-major walk's — every collected
// field of one row, then the next row — whatever the chunk sizes, with
// NULLs, NaN and strings in the columns. The sink builds no histogram.
func TestSinkFieldMajorMatchesRowMajor(t *testing.T) {
	schema := &types.Schema{Fields: []types.Field{
		{Qualifier: "a", Name: "k", Kind: types.KindInt},
		{Qualifier: "a", Name: "price", Kind: types.KindFloat},
		{Qualifier: "b", Name: "tag", Kind: types.KindString},
		{Qualifier: "b", Name: "skip", Kind: types.KindInt},
	}}
	fields := map[string]bool{"a_k": true, "a_price": true, "b_tag": true}
	const nparts = 3
	rng := rand.New(rand.NewSource(41))
	parts := make([][]types.Tuple, nparts)
	for p := range parts {
		parts[p] = make([]types.Tuple, 700+900*p)
		for i := range parts[p] {
			price := types.Float(rng.NormFloat64() * 50)
			switch rng.Intn(30) {
			case 0:
				price = types.Null()
			case 1:
				price = types.Float(math.NaN())
			}
			parts[p][i] = types.Tuple{
				types.Int(int64(rng.Intn(5000))), price,
				types.Str(string(rune('a' + rng.Intn(26)))), types.Int(int64(i)),
			}
		}
	}
	ctx := testCtx(t, nparts)
	sink := NewStreamSink(ctx, schema, nparts, "tmp_fieldmajor", fields, nil)
	want := stats.NewDatasetStats("tmp_fieldmajor")
	for p, rows := range parts {
		ref := stats.NewDatasetStats("tmp_fieldmajor")
		for _, r := range rows {
			ref.ObserveTuple(sink.flat, r, fields) // one row at a time: row-major
		}
		want.Merge(ref)
		for rest := rows; len(rest) > 0; {
			w := 1 + rng.Intn(min(len(rest), 1200))
			if err := sink.Emit(p, rest[:w]); err != nil {
				t.Fatal(err)
			}
			rest = rest[w:]
		}
	}
	_, got, err := sink.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.RecordCount != want.RecordCount || got.ByteSize != want.ByteSize || len(got.Fields) != len(want.Fields) {
		t.Errorf("field-major sink statistics differ from the row-major walk:\n got %s\nwant %s", got, want)
	}
	for name, w := range want.Fields {
		g := got.Fields[name]
		if g == nil || g.Count != w.Count || g.Nulls != w.Nulls || g.Numeric() != w.Numeric() ||
			!bytes.Equal(g.Distinct.Encode(nil), w.Distinct.Encode(nil)) {
			t.Errorf("field %s: field-major sink statistics differ from the row-major walk", name)
		} else if g.Quantiles != nil {
			t.Errorf("field %s: the sink built a quantile sketch", name)
		}
	}
	if obs := ctx.Accounting().StatsObserved.Load(); obs != got.RecordCount*int64(len(fields)) {
		t.Errorf("StatsObserved = %d, want %d", obs, got.RecordCount*int64(len(fields)))
	}
}

// TestBuildColumnWiseMatchesRowMajor: storage.Build observes each column over
// the input rows after placing them; the statistics must be byte-identical to
// observing the rows one at a time in input order.
func TestBuildColumnWiseMatchesRowMajor(t *testing.T) {
	schema := &types.Schema{Fields: []types.Field{
		{Name: "id", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt},
		{Name: "price", Kind: types.KindFloat},
		{Name: "name", Kind: types.KindString},
	}}
	rng := rand.New(rand.NewSource(42))
	rows := make([]types.Tuple, 3000)
	for i := range rows {
		grp := types.Int(int64(rng.Intn(40)))
		if rng.Intn(25) == 0 {
			grp = types.Null()
		}
		rows[i] = types.Tuple{
			types.Int(int64(i)), grp, types.Float(rng.ExpFloat64() - 0.5),
			types.Str(string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))),
		}
	}
	want := stats.NewIngestStats("t")
	for _, r := range rows {
		want.ObserveTuple(schema, r, nil)
	}
	for _, nparts := range []int{1, 4} {
		_, got, err := storage.Build("t", schema, []string{"id"}, rows, nparts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
			t.Errorf("%d partitions: Build's statistics differ from the row-major walk:\n got %s\nwant %s", nparts, got, want)
		}
	}
}

// scatterFixture is a four-partition table and what a correct exchange of it
// on column k must deliver.
type scatterFixture struct {
	ctx  *Context
	fact *storage.Dataset
	rows int64
	sum  int64 // Σ pay
}

func newScatterFixture(t testing.TB) *scatterFixture {
	ctx := testCtx(t, 4)
	ctx.ChunkRows = 64 // many frames in flight on a small table
	table := seqTable(6000, 499)
	fx := &scatterFixture{ctx: ctx, rows: int64(len(table))}
	for _, r := range table {
		fx.sum += r[2]
	}
	fx.fact = register(t, ctx, "fact", []string{"id"}, []string{"id", "k", "pay"}, table)
	return fx
}

// run exchanges the table on k. Each consumer checks that a row belongs to
// its partition and reads every header it is handed; see reports each chunk
// to the caller before the consumer pulls again, and failed marks the
// consumers whose own stream failed (the rest see a clean end of stream).
func (fx *scatterFixture) run(t testing.TB, see func(p int, c *Chunk)) (rows, sum int64, failed [4]bool, err error) {
	src, err := ScanSource(fx.ctx, fx.fact, "f", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	err = runScatter(fx.ctx, src, []int{1}, nil, false, func(p int, st probeStream) error {
		var n, s int64
		for {
			c, err := st.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				failed[p] = true
				return err
			}
			for i, r := range c.Rows {
				if int(c.Hashes[i]%4) != p || r.HashKeys([]int{1}) != c.Hashes[i] {
					t.Errorf("partition %d received a row hashed for %d", p, c.Hashes[i]%4)
				}
				n++
				s += r[2].I()
			}
			if see != nil {
				see(p, c)
			}
		}
		mu.Lock()
		rows, sum = rows+n, sum+s
		mu.Unlock()
		return nil
	})
	return rows, sum, failed, err
}

// TestPooledFramesSurviveFailedExchanges runs exchanges that fail mid-flight
// — a consumer's stream, then a producer's flush, then a consumer panic —
// each followed by clean ones. A failed consumer's merge stream still holds
// the last frame it delivered; that frame must never reach the pool, so the
// clean exchanges that follow (drawing their frames from it) must leave it
// untouched, and must deliver every row. Under -race a frame handed out while
// a drain loop or a producer still used it would also be reported.
func TestPooledFramesSurviveFailedExchanges(t *testing.T) {
	fx := newScatterFixture(t)
	rules := []faults.Rule{
		{Point: "exchange.consume", EveryN: 7},
		{Point: "exchange.produce", EveryN: 11},
		{Point: "exchange.consume", EveryN: 5, Panic: true},
	}
	for round := 0; round < 6; round++ {
		rule := rules[round%len(rules)]
		reg := faults.New(int64(round))
		reg.Arm(rule)
		fx.ctx.Faults = reg
		// The frame each consumer saw last, and a copy of its headers.
		held := make([]*Chunk, 4)
		snap := make([][]types.Tuple, 4)
		_, _, failed, err := fx.run(t, func(p int, c *Chunk) {
			held[p] = c
			snap[p] = append(snap[p][:0], c.Rows...)
		})
		if err == nil {
			t.Fatalf("round %d: exchange with %s armed did not fail", round, rule.Point)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("round %d: %v", round, err)
		}
		fx.ctx.Faults = nil
		for again := 0; again < 3; again++ {
			rows, sum, _, err := fx.run(t, nil)
			if err != nil {
				t.Fatalf("round %d: clean exchange after a failed one: %v", round, err)
			}
			if rows != fx.rows || sum != fx.sum {
				t.Fatalf("round %d: clean exchange after a failed one delivered %d rows (sum %d), want %d (sum %d)",
					round, rows, sum, fx.rows, fx.sum)
			}
		}
		for p, c := range held {
			if c == nil || !failed[p] {
				continue // a stream that saw its end released its last frame
			}
			if len(c.Rows) != len(snap[p]) {
				t.Fatalf("round %d: the frame partition %d's failed stream held was reused: %d rows, had %d", round, p, len(c.Rows), len(snap[p]))
			}
			for i := range snap[p] {
				if &c.Rows[i][0] != &snap[p][i][0] {
					t.Fatalf("round %d: the frame partition %d's failed stream held was overwritten at row %d", round, p, i)
				}
			}
		}
	}
}

// TestRecycledFrameHoldsNothing: a frame in the pool keeps no stored row, map
// or vector source reachable — including headers beyond its last length that
// an earlier, fuller use wrote.
func TestRecycledFrameHoldsNothing(t *testing.T) {
	ex := newScatterExchange(2, 8, true)
	row := types.Tuple{types.Int(1)}
	c := ex.get()
	for i := 0; i < 8; i++ {
		c.Rows, c.Hashes, c.Bytes = append(c.Rows, row), append(c.Hashes, 1), c.Bytes+9
	}
	c.Proj, c.Skipped = []int{0}, 3
	ex.release(c)
	c = ex.get() // second, shorter use: six stale headers past its length
	if c.Bytes != 0 || c.Skipped != 0 {
		t.Fatalf("a frame off the free list still carries its last use's %d bytes and %d skipped rows", c.Bytes, c.Skipped)
	}
	c.Rows, c.Hashes, c.Bytes = append(c.Rows, row, row), append(c.Hashes, 1, 1), 18
	ex.release(c)
	ex.recycle()
	if len(c.Rows) != 0 || c.Proj != nil || c.Sel != nil || c.Cols != nil || c.written != 0 || c.Bytes != 0 || c.Skipped != 0 {
		t.Fatalf("recycled frame not emptied: %+v", c)
	}
	if cap(c.Rows) != 8 || cap(c.Hashes) != 8 {
		t.Fatalf("recycled frame lost its buffers: caps %d/%d", cap(c.Rows), cap(c.Hashes))
	}
	for i, r := range c.Rows[:8] {
		if r != nil {
			t.Errorf("recycled frame still reaches a row through header %d", i)
		}
	}
}
