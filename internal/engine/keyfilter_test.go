package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/types"
)

// The join filter's contract: it may pass a probe row that cannot match but
// never drops one that can, and it changes no counter. The property test holds
// filtered joins to refJoin (rows and order) and to the counters the inputs
// dictate, over every key shape the soundness rule distinguishes and both
// ways the filter reads a key (a typed vector, a row value); the fuzz target
// holds the no-false-negative rule for any bit pattern; the metering tests
// drop every probe row and check that the meters still read as if none had
// been dropped.

func buildInt(r *rand.Rand) int64 {
	switch r.Intn(10) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	}
	return int64(r.Intn(41) - 20)
}

func probeInt(r *rand.Rand) int64 {
	switch r.Intn(12) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64 + 1
	case 3:
		return math.MaxInt64 - 1
	}
	return int64(r.Intn(81) - 40)
}

func orNull(r *rand.Rand, oneIn int, v types.Value) types.Value {
	if r.Intn(oneIn) == 0 {
		return types.Null()
	}
	return v
}

var filterLetters = []string{"a", "b", "c", "d"}

// filterCase is one key shape: how build and probe draw their (k1, k2) keys,
// which of them the join uses, and whether every build side drawn admits a
// filter (else some must not).
type filterCase struct {
	name     string
	k1Kind   types.Kind
	keys     []string
	build    func(r *rand.Rand) (k1, k2 types.Value) // nil: an empty build side
	probe    func(r *rand.Rand) (k1, k2 types.Value)
	filtered bool
}

var filterCases = []filterCase{
	{name: "int-keys", k1Kind: types.KindInt, keys: []string{"k1"}, filtered: true,
		build: func(r *rand.Rand) (types.Value, types.Value) {
			return types.Int(buildInt(r)), types.Int(int64(r.Intn(3)))
		},
		probe: func(r *rand.Rand) (types.Value, types.Value) {
			return orNull(r, 8, types.Int(probeInt(r))), types.Int(int64(r.Intn(3)))
		}},
	{name: "mixed-probe-kinds", k1Kind: types.KindInt, keys: []string{"k1"}, filtered: true,
		build: func(r *rand.Rand) (types.Value, types.Value) { return types.Int(buildInt(r)), types.Int(0) },
		probe: func(r *rand.Rand) (types.Value, types.Value) {
			var k1 types.Value
			switch r.Intn(6) {
			case 0:
				k1 = types.Null()
			case 1:
				k1 = types.Int(probeInt(r))
			case 2:
				k1 = types.Float(float64(r.Intn(41) - 20)) // 3.0 joins 3
			case 3:
				k1 = types.Float(float64(r.Intn(41)-20) + 0.5)
			case 4:
				k1 = types.Str(filterLetters[r.Intn(len(filterLetters))])
			default:
				k1 = types.Bool(r.Intn(2) == 0)
			}
			return k1, types.Int(0)
		}},
	{name: "composite-string-first", k1Kind: types.KindString, keys: []string{"k1", "k2"}, filtered: true,
		build: func(r *rand.Rand) (types.Value, types.Value) {
			return types.Str(filterLetters[r.Intn(3)]), types.Int(buildInt(r))
		},
		probe: func(r *rand.Rand) (types.Value, types.Value) {
			k2 := types.Int(probeInt(r))
			if r.Intn(4) == 0 {
				k2 = types.Float(float64(r.Intn(41) - 20))
			}
			return types.Str(filterLetters[r.Intn(len(filterLetters))]), orNull(r, 8, k2)
		}},
	{name: "empty-build", k1Kind: types.KindInt, keys: []string{"k1"},
		probe: func(r *rand.Rand) (types.Value, types.Value) { return types.Int(probeInt(r)), types.Int(0) }},
	// NULL joins NULL under Value.Equal, so a build NULL must leave its column
	// unfiltered.
	{name: "null-in-build", k1Kind: types.KindInt, keys: []string{"k1"},
		build: func(r *rand.Rand) (types.Value, types.Value) {
			return orNull(r, 6, types.Int(buildInt(r))), types.Int(0)
		},
		probe: func(r *rand.Rand) (types.Value, types.Value) {
			return orNull(r, 6, types.Int(probeInt(r))), types.Int(0)
		}},
}

// drawRows draws one side's rows as (k1, k2, pay), pay numbering them.
func drawRows(r *rand.Rand, draw func(r *rand.Rand) (types.Value, types.Value), count int) []types.Tuple {
	out := make([]types.Tuple, count)
	for i := range out {
		k1, k2 := draw(r)
		out[i] = types.Tuple{k1, k2, types.Int(int64(i))}
	}
	return out
}

func (fc filterCase) schema(alias string) *types.Schema {
	return types.NewSchema(
		types.Field{Qualifier: alias, Name: "k1", Kind: fc.k1Kind},
		types.Field{Qualifier: alias, Name: "k2", Kind: types.KindInt},
		types.Field{Qualifier: alias, Name: "pay", Kind: types.KindInt},
	)
}

// keyOffs are the join keys' offsets in a (k1, k2, pay) row.
func (fc filterCase) keyOffs() []int {
	offs := make([]int, len(fc.keys))
	for i, k := range fc.keys {
		offs[i] = map[string]int{"k1": 0, "k2": 1}[k]
	}
	return offs
}

// spread deals rows over n partitions: at random, or — placed — where the
// hash exchange would put them, with the relation marked partitioned on keys.
func spread(r *rand.Rand, schema *types.Schema, rows []types.Tuple, n int, placed bool, keys []int) *Relation {
	rel := &Relation{Schema: schema, Parts: make([][]types.Tuple, n)}
	for _, t := range rows {
		p := r.Intn(n)
		if placed {
			p = int(t.HashKeys(keys) % uint64(n))
		}
		rel.Parts[p] = append(rel.Parts[p], t)
	}
	if placed {
		rel.PartCols = keys
	}
	return rel
}

// moved counts the rows of parts a hash exchange on keys moves off their
// partition, and their encoded bytes: the shuffle a join must meter for them.
func moved(parts [][]types.Tuple, keys []int) (rows, bytes int64) {
	n := uint64(len(parts))
	for p, part := range parts {
		for _, t := range part {
			if t.HashKeys(keys)%n != uint64(p) {
				rows++
				bytes += int64(t.EncodedSize()) //dynopt:size-ok the reference the shuffle meter is held to
			}
		}
	}
	return rows, bytes
}

func countRows(parts [][]types.Tuple) (n int64) {
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// Property: a join with the filter on returns refJoin's rows in refJoin's
// order, and meters what the inputs dictate, for every key shape — int keys
// with duplicates, negatives and both extremes; NULL, float-equal-to-int,
// fractional, string and bool probe keys; an empty build side; a composite key
// whose first column is a string; a build NULL — through every place the
// filter applies: a hash join's scatter (probe at random), its local path
// (probe already placed on the keys), a broadcast probe, and a projected,
// filtered scan feeding either (Proj and Sel on the probe chunks). Each runs
// with column vectors (the typed-vector path) and under noVec (the row path).
func TestKeyFilterJoinsMatchReference(t *testing.T) {
	rejected, unfiltered := map[string]int{}, map[string]int{}
	for seed := int64(0); seed < 12; seed++ {
		for _, fc := range filterCases {
			r := rand.New(rand.NewSource(seed))
			n := 1 + int(seed)%4
			chunkRows := 1 + r.Intn(16)
			buildFirst := seed%2 == 0
			keys := fc.keyOffs()
			var buildRows []types.Tuple
			if fc.build != nil {
				buildRows = drawRows(r, fc.build, 1+r.Intn(40))
			}
			probeRows := drawRows(r, fc.probe, 60+r.Intn(120))
			build := spread(r, fc.schema("b"), buildRows, n, false, keys)
			loose := spread(r, fc.schema("p"), probeRows, n, false, keys)
			placed := spread(r, fc.schema("p"), probeRows, n, true, keys)

			// The filter covers the first key column that holds only ints in a
			// non-empty build side, else there is none.
			wantKey := -1
			for i, c := range keys {
				if len(buildRows) > 0 && !slices.ContainsFunc(buildRows, func(t types.Tuple) bool { return t[c].K != types.KindInt }) {
					wantKey = i
					break
				}
			}
			f := newKeyFilter(build.Parts, keys)
			if (f == nil) != (wantKey < 0) || (f != nil && f.key != wantKey) || (f == nil && fc.filtered) {
				t.Fatalf("seed %d %s: filter %+v, want one on key %d", seed, fc.name, f, wantKey)
			}
			if f == nil {
				unfiltered[fc.name]++
			} else {
				for _, row := range probeRows {
					if !f.passes(row[keys[f.key]]) {
						rejected[fc.name]++
					}
				}
			}
			bk, pk := make([]string, len(fc.keys)), make([]string, len(fc.keys))
			for i, k := range fc.keys {
				bk[i], pk[i] = "b."+k, "p."+k
			}

			type form struct {
				name  string
				probe func(ctx *Context) (Source, refInput)
			}
			relForm := func(rel *Relation) func(ctx *Context) (Source, refInput) {
				return func(ctx *Context) (Source, refInput) {
					return SourceOf(ctx, rel), refInput{parts: rel.Parts, keys: keys}
				}
			}
			forms := []form{
				{"relation", relForm(loose)},
				{"placed", relForm(placed)},
				{"scan", func(ctx *Context) (Source, refInput) {
					// Stored as (pay, k2, k1), scanned back as (k1, k2, pay)
					// through a projection map, a filter on pay selecting rows.
					stored := make([]types.Tuple, len(probeRows))
					for i, row := range probeRows {
						stored[i] = types.Tuple{row[2], row[1], row[0]}
					}
					s := fc.schema("")
					schema := types.NewSchema(s.Fields[2], s.Fields[1], s.Fields[0])
					ds := registerTyped(t, ctx, "probe", []string{"pay"}, schema, stored)
					cut := int64(len(probeRows) * 3 / 4)
					side := refSide{ds: "probe", alias: "p", project: []string{"k1", "k2", "pay"}, keys: fc.keys,
						filter: &expr.Compare{Op: expr.CmpLt, L: &expr.Column{Qualifier: "p", Name: "pay"}, R: &expr.Literal{Val: types.Int(cut)}},
						keep:   func(t types.Tuple) bool { return t[0].I() < cut }}
					src, err := ScanSource(ctx, ds, "p", side.filter, side.project)
					if err != nil {
						t.Fatal(err)
					}
					in, _, _ := side.model(t, ctx)
					return src, in
				}},
			}
			for _, fm := range forms {
				for _, algo := range []refAlgo{refHash, refBroadcast} {
					for _, noVec := range []bool{false, true} {
						ctx := testCtx(t, n)
						ctx.ChunkRows, ctx.noVec = chunkRows, noVec
						src, ref := fm.probe(ctx)
						got, err := collectJoin(n, func(mk SinkFactory) error {
							if algo == refHash {
								return HashJoinStream(ctx, SourceOf(ctx, build), src, bk, pk, buildFirst, mk)
							}
							return BroadcastJoinStream(ctx, SourceOf(ctx, build), src, bk, pk, buildFirst, mk)
						})
						mode := map[refAlgo]string{refHash: "hash", refBroadcast: "broadcast"}[algo]
						where := func() string {
							return fc.name + "/" + fm.name + "/" + mode + map[bool]string{false: "/vectors", true: "/noVec"}[noVec]
						}
						if err != nil {
							t.Fatalf("seed %d %s: %v", seed, where(), err)
						}
						want := relRows(&Relation{Parts: refJoin(algo, ref, refInput{parts: build.Parts, keys: keys}, buildFirst)})
						if have := relRows(got); len(have) != len(want) {
							t.Fatalf("seed %d %s: %d rows, the model has %d", seed, where(), len(have), len(want))
						} else {
							for i := range want {
								if have[i] != want[i] {
									t.Fatalf("seed %d %s: row %d is %s, the model has %s", seed, where(), i, have[i], want[i])
								}
							}
						}

						snap := ctx.Cluster.Acct().Snapshot()
						nBuild, nProbe := countRows(build.Parts), countRows(ref.parts)
						var wantShuffle, wantShuffleBytes, wantBuild int64
						if algo == refHash {
							wantShuffle, wantShuffleBytes = moved(build.Parts, keys)
							if pr, pb := moved(ref.parts, keys); fm.name != "placed" {
								wantShuffle, wantShuffleBytes = wantShuffle+pr, wantShuffleBytes+pb
							}
							wantBuild = nBuild
						} else {
							wantBuild = nBuild * int64(n)
						}
						if snap.ProbeRows != nProbe || snap.BuildRows != wantBuild ||
							snap.ShuffleRows != wantShuffle || snap.ShuffleBytes != wantShuffleBytes ||
							snap.SpillRows != 0 || snap.SpillBytes != 0 {
							t.Fatalf("seed %d %s: probe/build rows %d/%d, shuffle %d rows %d bytes, spill %d/%d; want %d/%d, %d rows %d bytes, 0/0",
								seed, where(), snap.ProbeRows, snap.BuildRows, snap.ShuffleRows, snap.ShuffleBytes,
								snap.SpillRows, snap.SpillBytes, nProbe, wantBuild, wantShuffle, wantShuffleBytes)
						}
					}
				}
			}
		}
	}
	for _, fc := range filterCases {
		if fc.filtered && rejected[fc.name] == 0 {
			t.Errorf("%s: the filter rejected no probe row; the case is vacuous", fc.name)
		}
		if !fc.filtered && unfiltered[fc.name] == 0 {
			t.Errorf("%s: every seed built a filter; the case is vacuous", fc.name)
		}
	}
}

// FuzzKeyFilter: for any set of build keys (any bit patterns), every build key
// passes the filter — as an int and as the float equal to it — a NULL never
// does, and the typed-vector and row-value paths mark every probe row alike.
func FuzzKeyFilter(f *testing.F) {
	le := func(xs ...int64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		return b
	}
	f.Add(le(3), int64(3), uint8(1))
	f.Add(le(math.MinInt64, math.MaxInt64, 0, -1), int64(math.MaxInt64-1), uint8(2))
	f.Add(le(7, 7, 7, 1<<40, -(1<<40)), int64(8), uint8(3))
	f.Add([]byte{}, int64(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, probe int64, nparts uint8) {
		var keys []int64
		for len(raw) >= 8 {
			keys = append(keys, int64(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		parts := make([][]types.Tuple, 1+int(nparts%4))
		member := map[int64]bool{}
		for i, k := range keys {
			parts[i%len(parts)] = append(parts[i%len(parts)], types.Tuple{types.Int(k)})
			member[k] = true
		}
		kf := newKeyFilter(parts, []int{0})
		if len(keys) == 0 {
			if kf != nil {
				t.Fatal("an empty build side built a filter")
			}
			return
		}
		if kf == nil {
			t.Fatal("an all-int build side built no filter")
		}
		var rows []types.Tuple
		for _, k := range keys {
			rows = append(rows, types.Tuple{types.Int(k)})
			if !kf.passes(types.Float(float64(k))) {
				t.Fatalf("float %v equal to build key %d was dropped", float64(k), k)
			}
		}
		rows = append(rows, types.Tuple{types.Int(probe)}, types.Tuple{types.Null()})
		schema := types.NewSchema(types.Field{Name: "k", Kind: types.KindInt})
		cols := types.NewColCache(schema)
		cols.SetWindow(rows)
		byRow := kf.mark(&Chunk{Rows: rows}, 0, nil)
		byVec := kf.mark(&Chunk{Rows: rows, Cols: cols}, 0, nil)
		for i, row := range rows {
			if byRow[i] != byVec[i] {
				t.Fatalf("row %d (%s): row path says %v, vector path %v", i, row, byRow[i], byVec[i])
			}
			if row[0].K == types.KindInt && member[row[0].I()] && !byRow[i] {
				t.Fatalf("build key %d was dropped", row[0].I())
			}
		}
		if byRow[len(rows)-1] {
			t.Fatal("a NULL probe key passed an all-int filter")
		}
	})
}

// filterMeterFixture is a four-partition build side keyed [1000, 1000+nb) and
// a probe side keyed [0, np), both spread at random so the probe scatters: the
// filter's range check drops every probe row.
func filterMeterFixture(t *testing.T) (build, probe *Relation) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	mk := func(alias string, base int64, rows int) *Relation {
		schema := types.NewSchema(types.Field{Qualifier: alias, Name: "k", Kind: types.KindInt},
			types.Field{Qualifier: alias, Name: "pay", Kind: types.KindString})
		all := make([]types.Tuple, rows)
		for i := range all {
			all[i] = types.Tuple{types.Int(base + int64(i)), types.Str(strings.Repeat("x", r.Intn(8)))}
		}
		return spread(r, schema, all, 4, false, []int{0})
	}
	build, probe = mk("b", 1000, 300), mk("p", 0, 900)
	f := newKeyFilter(build.Parts, []int{0})
	for _, part := range probe.Parts {
		for _, row := range part {
			if f.passes(row[0]) {
				t.Fatalf("fixture: probe key %s passes the filter", row[0])
			}
		}
	}
	return build, probe
}

// placement is where a hash exchange on column 0 sends a relation's rows:
// rows and encoded bytes per destination.
func placement(rel *Relation) (rows, bytes []int64) {
	n := len(rel.Parts)
	rows, bytes = make([]int64, n), make([]int64, n)
	for _, part := range rel.Parts {
		for _, t := range part {
			d := t.HashKeys([]int{0}) % uint64(n)
			rows[d]++
			bytes[d] += int64(t.EncodedSize()) //dynopt:size-ok the reference the probe bytes are held to
		}
	}
	return rows, bytes
}

// simSpill is meterSpill's arithmetic over per-partition figures, written out
// from the inputs.
func simSpillOf(budget int64, buildRows, buildBytes, probeRows, probeBytes []int64) (rows, bytes int64) {
	for p := range buildRows {
		bb := buildBytes[p]
		if bb <= budget {
			continue
		}
		frac := float64(bb-budget) / float64(bb)
		bytes += 2 * ((bb - budget) + int64(float64(probeBytes[p])*frac))
		rows += int64(float64(buildRows[p]+probeRows[p]) * frac)
	}
	return rows, bytes
}

func relBytes(rel *Relation) (n int64) {
	for _, part := range rel.Parts {
		for _, t := range part {
			n += int64(t.EncodedSize()) //dynopt:size-ok the reference the build and probe bytes are held to
		}
	}
	return n
}

// Dropping every probe row changes no meter. A broadcast join whose build
// side is over the per-node budget charges the simulated spill model from the
// probe rows and bytes it never probed; a scattered hash join ships its probe
// destinations nothing but Skipped counts, and still meters every probe row's
// shuffle and probe — and, with its build partitions over the budget, every
// probe row's share of the simulated spill.
func TestKeyFilterDropsEverythingMetersEverything(t *testing.T) {
	build, probe := filterMeterFixture(t)
	nProbe := countRows(probe.Parts)
	probeRows, probeBytes := placement(probe)
	buildRows, buildBytes := placement(build)

	t.Run("broadcast", func(t *testing.T) {
		ctx := testCtx(t, 4)
		budget := relBytes(build) / 2
		ctx.Cluster.SetMemoryPerNodeBytes(budget)
		out, err := BroadcastJoin(ctx, probe, build, []string{"p.k"}, []string{"b.k"}, false)
		if err != nil {
			t.Fatal(err)
		}
		// Every partition probes the whole build side against its own rows.
		bRows, bBytes := make([]int64, 4), make([]int64, 4)
		pRows, pBytes := make([]int64, 4), make([]int64, 4)
		for p := range bRows {
			bRows[p], bBytes[p] = countRows(build.Parts), relBytes(build)
			pRows[p] = int64(len(probe.Parts[p]))
			pBytes[p] = relBytes(&Relation{Parts: [][]types.Tuple{probe.Parts[p]}})
		}
		spillRows, spillBytes := simSpillOf(budget, bRows, bBytes, pRows, pBytes)
		snap := ctx.Cluster.Acct().Snapshot()
		if out.RowCount() != 0 || snap.ProbeRows != nProbe || snap.ShuffleRows != 0 || snap.ShuffleBytes != 0 ||
			snap.SpillRows != spillRows || snap.SpillBytes != spillBytes || spillRows == 0 {
			t.Fatalf("%d rows out; probe %d, shuffle %d/%d, spill %d rows %d bytes; want 0; %d, 0/0, %d rows %d bytes (> 0)",
				out.RowCount(), snap.ProbeRows, snap.ShuffleRows, snap.ShuffleBytes, snap.SpillRows, snap.SpillBytes,
				nProbe, spillRows, spillBytes)
		}
	})

	t.Run("scatter-skipped-only", func(t *testing.T) {
		ctx := testCtx(t, 4)
		ctx.ChunkRows = 16
		// What the destinations receive: chunks with no rows, whose Skipped
		// counts add up to the rows routed there, whose Bytes to their weight.
		f := newKeyFilter(build.Parts, []int{0})
		var mu sync.Mutex
		gotRows, gotBytes := make([]int64, 4), make([]int64, 4)
		err := runScatter(ctx, SourceOf(ctx, probe), []int{0}, f, true, func(p int, st probeStream) error {
			var rows, bytes int64
			for c, err := st.next(); err == nil; c, err = st.next() {
				if c.Live() != 0 || c.Skipped == 0 {
					t.Errorf("destination %d received %d rows and %d skipped", p, c.Live(), c.Skipped)
				}
				rows, bytes = rows+int64(c.Skipped), bytes+c.Bytes
			}
			mu.Lock()
			gotRows[p], gotBytes[p] = rows, bytes
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := range gotRows {
			if gotRows[p] != probeRows[p] || gotBytes[p] != probeBytes[p] {
				t.Errorf("destination %d: %d skipped rows of %d bytes, the exchange routes %d of %d", p, gotRows[p], gotBytes[p], probeRows[p], probeBytes[p])
			}
		}

		ctx = testCtx(t, 4)
		ctx.ChunkRows = 16
		out, err := HashJoin(ctx, probe, build, []string{"p.k"}, []string{"b.k"}, false)
		if err != nil {
			t.Fatal(err)
		}
		bm, bmb := moved(build.Parts, []int{0})
		pm, pmb := moved(probe.Parts, []int{0})
		snap := ctx.Cluster.Acct().Snapshot()
		if out.RowCount() != 0 || snap.ProbeRows != nProbe || snap.ShuffleRows != bm+pm || snap.ShuffleBytes != bmb+pmb ||
			snap.SpillRows != 0 || snap.SpillBytes != 0 {
			t.Fatalf("%d rows out; probe %d, shuffle %d/%d, spill %d/%d; want 0; %d, %d/%d, 0/0",
				out.RowCount(), snap.ProbeRows, snap.ShuffleRows, snap.ShuffleBytes, snap.SpillRows, snap.SpillBytes,
				nProbe, bm+pm, bmb+pmb)
		}
	})

	t.Run("scatter-sim-spill", func(t *testing.T) {
		ctx := testCtx(t, 4)
		ctx.ChunkRows = 16
		budget := buildBytes[0] / 3
		ctx.Cluster.SetMemoryPerNodeBytes(budget)
		out, err := HashJoin(ctx, probe, build, []string{"p.k"}, []string{"b.k"}, false)
		if err != nil {
			t.Fatal(err)
		}
		bm, bmb := moved(build.Parts, []int{0})
		pm, pmb := moved(probe.Parts, []int{0})
		spillRows, spillBytes := simSpillOf(budget, buildRows, buildBytes, probeRows, probeBytes)
		snap := ctx.Cluster.Acct().Snapshot()
		if out.RowCount() != 0 || snap.ProbeRows != nProbe || snap.ShuffleRows != bm+pm || snap.ShuffleBytes != bmb+pmb ||
			snap.SpillRows != spillRows || snap.SpillBytes != spillBytes || spillRows == 0 {
			t.Fatalf("%d rows out; probe %d, shuffle %d/%d, spill %d rows %d bytes; want 0; %d, %d/%d, %d rows %d bytes (> 0)",
				out.RowCount(), snap.ProbeRows, snap.ShuffleRows, snap.ShuffleBytes, snap.SpillRows, snap.SpillBytes,
				nProbe, bm+pm, bmb+pmb, spillRows, spillBytes)
		}
	})
}
