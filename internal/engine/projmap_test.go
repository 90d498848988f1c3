package engine

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/faults/leakcheck"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// The projection-map contract, as one property: a resident scan emits stored
// rows with a column map (Chunk.Proj), and every consumer fed those chunks
// must behave exactly as if each chunk had been flattened and narrowed first
// — same rows in the same order, same prehashes, same Bytes, same counters.
// narrowFirst is that reference: the same scan, with every chunk passed
// through appendLive before the consumer sees it.

type narrowFirst struct{ Source }

func (s narrowFirst) Open(p int) (Cursor, error) {
	cur, err := s.Source.Open(p)
	if err != nil {
		return nil, err
	}
	return &narrowCursor{cur: cur}, nil
}

type narrowCursor struct {
	cur   Cursor
	arena types.Arena
	c     Chunk
}

func (c *narrowCursor) Next() (*Chunk, error) {
	in, err := c.cur.Next()
	if err != nil {
		return nil, err
	}
	c.c = Chunk{Rows: in.appendLive(nil, &c.arena)}
	return &c.c, nil
}

// mapCase is one drawn configuration: a random fact schema, a projection of
// it, a selection, a join key shape, and the execution knobs.
type mapCase struct {
	seed       int64
	chunkRows  int
	noVec      bool
	buildFirst bool
	sel        string   // none | empty | sparse | full
	keys       []string // fact/dim key column names (unqualified)
	project    []string // fact projection, in output order
}

func (mc mapCase) String() string {
	return fmt.Sprintf("seed=%d chunk=%d novec=%v buildFirst=%v sel=%s keys=%v project=%v",
		mc.seed, mc.chunkRows, mc.noVec, mc.buildFirst, mc.sel, mc.keys, mc.project)
}

var mapNames = []string{"ash", "mint", "zinc", "kelp", "moss", "alder"}

const (
	mapFactRows = 240
	mapNodes    = 4
)

// load registers the case's fact and dim tables. fact carries id, sel, the
// candidate key columns k1, k2, ks and up to four filler columns of random
// kinds, all in a seed-shuffled order with NULLs sprinkled in; dim carries
// every (k1, k2) combination four times over, so matches fan out and output
// order is observable.
func (mc mapCase) load(tb testing.TB, ctx *Context) {
	tb.Helper()
	rng := rand.New(rand.NewSource(mc.seed))
	fields := []types.Field{
		{Name: "id", Kind: types.KindInt}, {Name: "sel", Kind: types.KindInt},
		{Name: "k1", Kind: types.KindInt}, {Name: "k2", Kind: types.KindInt},
		{Name: "ks", Kind: types.KindString},
	}
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		fields = append(fields, types.Field{Name: fmt.Sprintf("r%d", i), Kind: kinds[rng.Intn(len(kinds))]})
	}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	rows := make([]types.Tuple, mapFactRows)
	for i := range rows {
		t := make(types.Tuple, len(fields))
		for c, f := range fields {
			switch {
			case f.Name == "id":
				t[c] = types.Int(int64(i))
			case f.Name == "sel":
				t[c] = types.Int(int64(rng.Intn(100)))
			case f.Name != "k2" && rng.Intn(9) == 0:
				t[c] = types.Null()
			case f.Name == "k1":
				t[c] = types.Int(int64(rng.Intn(6))) // 5 never matches
			case f.Name == "k2":
				t[c] = types.Int(int64(rng.Intn(3)))
			case f.Name == "ks":
				t[c] = types.Str(mapNames[rng.Intn(len(mapNames))])
			case f.Kind == types.KindInt:
				t[c] = types.Int(rng.Int63n(1 << 40))
			case f.Kind == types.KindFloat:
				t[c] = types.Float(rng.NormFloat64())
			case f.Kind == types.KindString:
				t[c] = types.Str(fmt.Sprintf("filler-%0*d", 1+rng.Intn(12), rng.Intn(1000)))
			default:
				t[c] = types.Bool(rng.Intn(2) == 0)
			}
		}
		rows[i] = t
	}
	registerTyped(tb, ctx, "fact", []string{"id"}, &types.Schema{Fields: fields}, rows)

	dimSchema := types.NewSchema(
		types.Field{Name: "did", Kind: types.KindInt}, types.Field{Name: "k1", Kind: types.KindInt},
		types.Field{Name: "k2", Kind: types.KindInt}, types.Field{Name: "ks", Kind: types.KindString},
		types.Field{Name: "attr", Kind: types.KindFloat},
	)
	var dim []types.Tuple
	for dup := 0; dup < 4; dup++ {
		for k1 := 0; k1 < 5; k1++ {
			for k2 := 0; k2 < 3; k2++ {
				did := len(dim)
				dim = append(dim, types.Tuple{types.Int(int64(did)), types.Int(int64(k1)), types.Int(int64(k2)),
					types.Str(mapNames[(k1+k2+dup)%len(mapNames)]), types.Float(float64(did) / 7)})
			}
		}
	}
	dimDS := registerTyped(tb, ctx, "dim", []string{"did"}, dimSchema, dim)
	if _, err := storage.BuildIndex(dimDS, mc.keys[0]); err != nil {
		tb.Fatal(err)
	}
}

func (mc mapCase) filter() expr.Expr {
	bound := map[string]int64{"empty": -1, "sparse": 12, "full": 1000}
	b, ok := bound[mc.sel]
	if !ok {
		return nil
	}
	return &expr.Compare{Op: expr.CmpLt, L: &expr.Column{Qualifier: "f", Name: "sel"}, R: &expr.Literal{Val: types.Int(b)}}
}

func (mc mapCase) qualified(alias string) []string {
	out := make([]string, len(mc.keys))
	for i, k := range mc.keys {
		out[i] = alias + "." + k
	}
	return out
}

// mapConsumer is one consumer of probe-side chunks. run feeds it src and
// returns everything observable about what it did with the rows.
type mapConsumer struct {
	name string
	// prep adjusts the fresh context before loading (budgets, spill device).
	prep func(t *testing.T, ctx *Context)
	run  func(ctx *Context, mc mapCase, src Source) ([]string, error)
}

func obsRows(label string, p int, rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = fmt.Sprintf("%s p%d: %s", label, p, t)
	}
	return out
}

// obsJoin runs a streaming join entry point and observes its output
// relation: schema, partitioning and rows in order.
func obsJoin(ctx *Context, run func(mk SinkFactory) error) ([]string, error) {
	rel, err := collectJoin(ctx.Cluster.Nodes(), run)
	if err != nil {
		return nil, err
	}
	return append([]string{rel.Schema.String(), fmt.Sprint(rel.PartCols)}, relRows(rel)...), nil
}

// obsStream drains one probe stream whose producer was asked for bytes,
// observing each chunk's live rows (at schema width) beside their prehashes —
// computed over key columns pCols, as the probe loop does, for a chunk that
// arrives unhashed — then the chunk's Bytes, which must be what the narrowed
// rows weigh.
func obsStream(p int, st probeStream, pCols []int) ([]string, error) {
	var out []string
	var arena types.Arena
	keys := keyHasher{keyCols: pCols}
	for {
		c, err := st.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		rows := c.appendLive(nil, &arena)
		hashes := c.Hashes
		if hashes == nil {
			hashes = keys.hash(c)
		}
		if len(hashes) != len(rows) {
			return nil, fmt.Errorf("sidecars misaligned: %d rows, %d hashes", len(rows), len(hashes))
		}
		var narrowed int64
		for i, t := range rows {
			narrowed += int64(t.EncodedSize()) //dynopt:size-ok the reference walk Bytes stands in for
			out = append(out, fmt.Sprintf("p%d: %s h=%x", p, t, hashes[i]))
		}
		if c.Bytes != narrowed {
			return nil, fmt.Errorf("chunk says Bytes = %d, its %d narrowed rows weigh %d", c.Bytes, len(rows), narrowed)
		}
		out = append(out, fmt.Sprintf("p%d: chunk of %d bytes", p, c.Bytes))
	}
}

func mapBuild(ctx *Context) (*Relation, error) { return ScanByName(ctx, "dim", "d", nil, nil) }

// simSpill shrinks the per-node budget below any build side, so the
// simulated spill model is live and the probe's Bytes feed SpillBytes.
func simSpill(_ *testing.T, ctx *Context) { ctx.Cluster.SetMemoryPerNodeBytes(64) }

var mapConsumers = []mapConsumer{
	{name: "local-sidecars", run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		pCols, err := resolveKeys(src.Schema(), mc.qualified("f"))
		if err != nil {
			return nil, err
		}
		var out []string
		for p := 0; p < src.Parts(); p++ {
			cur, err := src.Open(p)
			if err != nil {
				return nil, err
			}
			obs, err := obsStream(p, &localStream{cur: cur, wantBytes: true}, pCols)
			if err != nil {
				return nil, err
			}
			out = append(out, obs...)
		}
		return out, nil
	}},
	{name: "broadcast-probe", prep: simSpill, run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		build, err := mapBuild(ctx)
		if err != nil {
			return nil, err
		}
		return obsJoin(ctx, func(mk SinkFactory) error {
			return BroadcastJoinStream(ctx, SourceOf(ctx, build), src, mc.qualified("d"), mc.qualified("f"), mc.buildFirst, mk)
		})
	}},
	{name: "scatter-sidecars", run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		pCols, err := resolveKeys(src.Schema(), mc.qualified("f"))
		if err != nil {
			return nil, err
		}
		var mu sync.Mutex
		byPart := make([][]string, src.Parts())
		err = runScatter(ctx, src, pCols, nil, true, func(p int, st probeStream) error {
			obs, err := obsStream(p, st, pCols)
			mu.Lock()
			byPart[p] = obs
			mu.Unlock()
			return err
		})
		var out []string
		for _, obs := range byPart {
			out = append(out, obs...)
		}
		return out, err
	}},
	{name: "scatter-probe", prep: simSpill, run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		build, err := mapBuild(ctx)
		if err != nil {
			return nil, err
		}
		return obsJoin(ctx, func(mk SinkFactory) error {
			return HashJoinStream(ctx, SourceOf(ctx, build), src, mc.qualified("d"), mc.qualified("f"), mc.buildFirst, mk)
		})
	}},
	{name: "spilling-probe",
		prep: func(t *testing.T, ctx *Context) {
			ctx.Cluster.SetMemoryPerNodeBytes(200) // a handful of dim rows per node: most sub-partitions evict
			ctx.Spill = storage.NewSpillManager(t.TempDir(), "projmap_")
			ctx.Grant = ctx.Cluster.Governor().Grant()
			t.Cleanup(ctx.Grant.Close)
		},
		run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
			build, err := mapBuild(ctx)
			if err != nil {
				return nil, err
			}
			obs, err := obsJoin(ctx, func(mk SinkFactory) error {
				return HashJoinStream(ctx, SourceOf(ctx, build), src, mc.qualified("d"), mc.qualified("f"), mc.buildFirst, mk)
			})
			if err != nil {
				return nil, err
			}
			if ctx.Accounting().SpillBytes.Load() == 0 {
				return nil, fmt.Errorf("budget did not force spilling; entry is vacuous")
			}
			return obs, ctx.Spill.Sweep()
		}},
	{name: "replicate-inlj-outer", run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		dim, _ := ctx.Catalog.Get("dim")
		return obsJoin(ctx, func(mk SinkFactory) error {
			return IndexNLJoinStream(ctx, src, dim, "d", mc.qualified("f"), mc.keys, nil, true, mk)
		})
	}},
	{name: "run-to-sink", run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		stats := map[string]bool{}
		for _, f := range flattenSchema(src.Schema()).Fields {
			stats[f.Name] = true
		}
		sink := NewStreamSink(ctx, src.Schema(), src.Parts(), "tmp_projmap", stats, src.PartCols())
		if err := RunToSink(ctx, src, sink); err != nil {
			return nil, err
		}
		ds, st, err := sink.Finish()
		if err != nil {
			return nil, err
		}
		out := []string{ds.Schema.String(), fmt.Sprint(ds.PrimaryKey), fmt.Sprint(st.RecordCount, st.ByteSize)}
		for p, part := range ds.Parts {
			out = append(out, obsRows("sink", p, part)...)
		}
		return out, nil
	}},
	{name: "collect-exchanged", run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		pCols, err := resolveKeys(src.Schema(), mc.qualified("f"))
		if err != nil {
			return nil, err
		}
		rel, hashes, sizes, err := exchange(ctx, src, pCols, true)
		if err != nil {
			return nil, err
		}
		out := []string{rel.Schema.String(), fmt.Sprint(rel.PartCols), fmt.Sprint(rel.ByteSize())}
		for p, part := range rel.Parts {
			out = append(out, obsRows("bucket", p, part)...)
			out = append(out, fmt.Sprintf("p%d hashes=%x sizes=%d", p, hashes[p], sizes[p]))
		}
		return out, nil
	}},
	{name: "materialize-source", run: func(ctx *Context, mc mapCase, src Source) ([]string, error) {
		// Wrapped so the scan's own batch fast path is not taken: this entry
		// is about collecting chunks.
		rel, err := materializeSource(ctx, struct{ Source }{src})
		if err != nil {
			return nil, err
		}
		return append([]string{rel.Schema.String(), fmt.Sprint(rel.PartCols)}, relRows(rel)...), nil
	}},
}

// mapCases draws the configurations: the full cross of chunk capacity,
// selection and key shape, each with all three projection shapes, and the
// remaining knobs drawn per case from its seed.
func mapCases() []mapCase {
	keyShapes := [][]string{{"k1"}, {"k1", "k2"}, {"ks"}}
	var out []mapCase
	seed := int64(0)
	for _, chunk := range []int{1, 7, 1024} {
		for _, sel := range []string{"none", "empty", "sparse", "full"} {
			for _, keys := range keyShapes {
				for shape := 0; shape < 3; shape++ {
					seed++
					rng := rand.New(rand.NewSource(seed * 7919))
					mc := mapCase{seed: seed, chunkRows: chunk, sel: sel, keys: keys,
						noVec: rng.Intn(2) == 0, buildFirst: rng.Intn(2) == 0}
					switch shape {
					case 0: // the keys alone, reversed: a single column for single keys
						for i := len(keys) - 1; i >= 0; i-- {
							mc.project = append(mc.project, keys[i])
						}
					case 1: // keys plus a few others, shuffled
						mc.project = append(append([]string{}, keys...), "id", "sel")
						if keys[0] != "ks" {
							mc.project = append(mc.project, "ks")
						}
						mc.project = mc.project[:len(keys)+1+rng.Intn(len(mc.project)-len(keys))]
						rng.Shuffle(len(mc.project), func(i, j int) { mc.project[i], mc.project[j] = mc.project[j], mc.project[i] })
					case 2: // every fixed column, reordered: a map as wide as the row may be
						mc.project = []string{"ks", "k2", "sel", "k1", "id"}
					}
					out = append(out, mc)
				}
			}
		}
	}
	return out
}

func TestProjectionMapMatchesNarrowFirst(t *testing.T) {
	leakcheck.Check(t)
	cases := mapCases()
	// The property is vacuous unless the scan really hands out mapped chunks,
	// with and without a selection.
	var projected, withSel int
	for _, mc := range cases {
		ctx := testCtx(t, mapNodes)
		ctx.ChunkRows = mc.chunkRows
		mc.load(t, ctx)
		fact, _ := ctx.Catalog.Get("fact")
		src, err := ScanSource(ctx, fact, "f", mc.filter(), mc.project)
		if err != nil {
			t.Fatalf("%s: %v", mc, err)
		}
		cur, _ := src.Open(0)
		if c, err := cur.Next(); err == nil {
			if c.Proj != nil && len(c.Rows[0]) == fact.Schema.Len() {
				projected++
			}
			if c.Sel != nil {
				withSel++
			}
		}
	}
	if projected == 0 || withSel == 0 {
		t.Fatalf("no mapped chunks to test with (projected %d, with selection %d)", projected, withSel)
	}
	for _, cons := range mapConsumers {
		t.Run(cons.name, func(t *testing.T) {
			for _, mc := range cases {
				run := func(narrow bool) ([]string, any) {
					ctx := testCtx(t, mapNodes)
					ctx.ChunkRows, ctx.noVec = mc.chunkRows, mc.noVec
					if cons.prep != nil {
						cons.prep(t, ctx)
					}
					mc.load(t, ctx)
					fact, _ := ctx.Catalog.Get("fact")
					src, err := ScanSource(ctx, fact, "f", mc.filter(), mc.project)
					if err != nil {
						t.Fatalf("%s: %v", mc, err)
					}
					if narrow {
						src = narrowFirst{src}
					}
					obs, err := cons.run(ctx, mc, src)
					if err != nil {
						t.Fatalf("%s narrow=%v: %v", mc, narrow, err)
					}
					return obs, ctx.Cluster.Acct().Snapshot()
				}
				got, gotSnap := run(false)
				want, wantSnap := run(true)
				if gotSnap != wantSnap {
					t.Errorf("%s: counters diverged\nmapped: %+v\nnarrow: %+v", mc, gotSnap, wantSnap)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d observations, narrowing first gives %d", mc, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: observation %d diverged\nmapped: %s\nnarrow: %s", mc, i, got[i], want[i])
					}
				}
			}
		})
	}
}
