package engine

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dynopt/internal/cluster"
	"dynopt/internal/expr"
	"dynopt/internal/plan"
	"dynopt/internal/types"
)

// The join operators' reference lives here, not in production: refJoin, a
// nested-loop model that shares no code with the operators it checks, and
// testdata/pipeline_golden.json, the answers of the whole-relation batch
// operators recorded at their last commit (the parent of the one that
// deleted them).

type refAlgo int

const (
	refHash refAlgo = iota
	refBroadcast
	refIndexNL
)

// refInput is one join input as the model sees it: partitions of plain rows
// and the offsets of the join keys in them.
type refInput struct {
	parts [][]types.Tuple
	keys  []int
}

// refJoin is the order-exact model of the three join algorithms over plain
// partitioned rows; it imports nothing of the engine. probe ⋈ build on
// positional key equality; output tuples are probe⧺build, or build⧺probe
// with buildFirst. Every algorithm is one nested loop per output partition —
// probe rows in order, each one's matches in build-row order — and they
// differ only in which rows a partition sees:
//
//   - refHash: both sides are exchanged, a row going to partition
//     HashKeys % n; a destination receives source partitions in order, rows
//     in row order (rows already placed by those keys stay where they are).
//   - refBroadcast: every probe partition, unmoved, against the whole build
//     side in partition order.
//   - refIndexNL: the whole outer (probe) side in partition order against
//     each inner (build) partition, unmoved; an index returns equal keys in
//     stored order.
func refJoin(algo refAlgo, probe, build refInput, buildFirst bool) [][]types.Tuple {
	n := len(probe.parts)
	exchange := func(in refInput) [][]types.Tuple {
		out := make([][]types.Tuple, n)
		for _, part := range in.parts {
			for _, t := range part {
				d := t.HashKeys(in.keys) % uint64(n)
				out[d] = append(out[d], t)
			}
		}
		return out
	}
	whole := func(in refInput) [][]types.Tuple {
		var all []types.Tuple
		for _, part := range in.parts {
			all = append(all, part...)
		}
		out := make([][]types.Tuple, n)
		for p := range out {
			out[p] = all
		}
		return out
	}
	pParts, bParts := probe.parts, build.parts
	switch algo {
	case refHash:
		pParts, bParts = exchange(probe), exchange(build)
	case refBroadcast:
		bParts = whole(build)
	case refIndexNL:
		pParts = whole(probe)
	}
	out := make([][]types.Tuple, n)
	for p := range out {
		for _, pt := range pParts[p] {
			for _, bt := range bParts[p] {
				if !bt.KeysEqual(build.keys, pt, probe.keys) {
					continue
				}
				row := append(append(types.Tuple{}, pt...), bt...)
				if buildFirst {
					row = append(append(types.Tuple{}, bt...), pt...)
				}
				out[p] = append(out[p], row)
			}
		}
	}
	return out
}

// refSide names one input of a join case: a registered dataset read through
// a filter and a projection. The engine gets the filter as an expression;
// the model gets the same predicate written in Go over the stored row.
type refSide struct {
	ds      string
	alias   string
	filter  expr.Expr
	keep    func(t types.Tuple) bool
	project []string // stored column names in output order; nil keeps all
	keys    []string // join key column names
}

func (s refSide) qualifiedKeys() []string {
	out := make([]string, len(s.keys))
	for i, k := range s.keys {
		out[i] = s.alias + "." + k
	}
	return out
}

// joinCase is one join job: left ⋈ right, output left⧺right. For refIndexNL
// left is the outer and right the indexed inner, whose filter applies to the
// fetched rows.
type joinCase struct {
	algo        refAlgo
	left, right refSide
	buildLeft   bool // refHash, refBroadcast: the side under the hash table
	// unordered: the job spills for real, and the hybrid join emits resident
	// sub-partitions before spilled ones — its rows are held to the model as
	// a multiset and to the golden digest for order.
	unordered bool
}

// model resolves a side against the loaded catalog: the rows the scan should
// produce, the key offsets in them, the qualified column names, and the
// offsets the stored partitioning survives at (nil when projected away).
func (s refSide) model(t *testing.T, ctx *Context) (in refInput, cols []string, partCols []int) {
	t.Helper()
	ds, ok := ctx.Catalog.Get(s.ds)
	if !ok {
		t.Fatalf("reference: dataset %q not loaded", s.ds)
	}
	names := s.project
	if names == nil {
		for _, f := range ds.Schema.Fields {
			names = append(names, f.Name)
		}
	}
	offs := make([]int, len(names))
	for i, name := range names {
		off, ok := ds.Schema.Index(name)
		if !ok {
			t.Fatalf("reference: %s has no column %q", s.ds, name)
		}
		offs[i] = off
		cols = append(cols, s.alias+"."+name)
	}
	in.parts = make([][]types.Tuple, len(ds.Parts))
	for p, part := range ds.Parts {
		for _, row := range part {
			if s.keep != nil && !s.keep(row) {
				continue
			}
			out := make(types.Tuple, len(offs))
			for i, off := range offs {
				out[i] = row[off]
			}
			in.parts[p] = append(in.parts[p], out)
		}
	}
	for _, k := range s.keys {
		in.keys = append(in.keys, slices.Index(names, k))
	}
	for _, f := range ds.PartitionFields() {
		i := slices.Index(names, f)
		if i < 0 {
			return in, cols, nil
		}
		partCols = append(partCols, i)
	}
	return in, cols, partCols
}

// expected runs the model over the loaded catalog.
func (c joinCase) expected(t *testing.T, ctx *Context) (parts [][]types.Tuple, cols []string, partCols []int) {
	t.Helper()
	l, lCols, lPC := c.left.model(t, ctx)
	r, rCols, rPC := c.right.model(t, ctx)
	cols = append(lCols, rCols...)
	shift := func(pc []int) []int {
		var out []int
		for _, c := range pc {
			out = append(out, c+len(lCols))
		}
		return out
	}
	switch {
	case c.algo == refIndexNL:
		return refJoin(refIndexNL, l, r, false), cols, shift(rPC)
	case c.buildLeft:
		partCols = shift(rPC) // a broadcast probe keeps its partitioning
		if c.algo == refHash {
			partCols = l.keys
		}
		return refJoin(c.algo, r, l, true), cols, partCols
	default:
		partCols = lPC
		if c.algo == refHash {
			partCols = l.keys
		}
		return refJoin(c.algo, l, r, false), cols, partCols
	}
}

// viaRelations runs the case through the relation-in entry points.
func (c joinCase) viaRelations(ctx *Context) (*Relation, error) {
	l, err := ScanByName(ctx, c.left.ds, c.left.alias, c.left.filter, c.left.project)
	if err != nil {
		return nil, err
	}
	lk, rk := c.left.qualifiedKeys(), c.right.qualifiedKeys()
	if c.algo == refIndexNL {
		inner, _ := ctx.Catalog.Get(c.right.ds)
		return IndexNLJoin(ctx, l, inner, c.right.alias, lk, c.right.keys, c.right.filter)
	}
	r, err := ScanByName(ctx, c.right.ds, c.right.alias, c.right.filter, c.right.project)
	if err != nil {
		return nil, err
	}
	if c.algo == refBroadcast {
		return BroadcastJoin(ctx, l, r, lk, rk, c.buildLeft)
	}
	return HashJoin(ctx, l, r, lk, rk, c.buildLeft)
}

// viaSources runs the case as a stage pipeline does: scans feed the join as
// chunk sources and nothing lands before the sink.
func (c joinCase) viaSources(ctx *Context) (*Relation, error) {
	source := func(s refSide) (Source, error) {
		ds, _ := ctx.Catalog.Get(s.ds)
		return ScanSource(ctx, ds, s.alias, s.filter, s.project)
	}
	return collectJoin(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
		l, err := source(c.left)
		if err != nil {
			return err
		}
		lk, rk := c.left.qualifiedKeys(), c.right.qualifiedKeys()
		if c.algo == refIndexNL {
			inner, _ := ctx.Catalog.Get(c.right.ds)
			return IndexNLJoinStream(ctx, l, inner, c.right.alias, lk, c.right.keys, c.right.filter, true, mk)
		}
		r, err := source(c.right)
		if err != nil {
			return err
		}
		build, probe, bk, pk := l, r, lk, rk
		if !c.buildLeft {
			build, probe, bk, pk = r, l, rk, lk
		}
		if c.algo == refHash {
			return HashJoinStream(ctx, build, probe, bk, pk, c.buildLeft, mk)
		}
		return BroadcastJoinStream(ctx, build, probe, bk, pk, c.buildLeft, mk)
	})
}

// viaPlan runs the case as a stage of the dynamic loop does: a two-leaf join
// node handed to the dispatcher. For refIndexNL the left side is the outer,
// which is the side the plan calls the build side.
func (c joinCase) viaPlan(ctx *Context) (*Relation, error) {
	leaf := func(s refSide) *plan.Node {
		return plan.NewLeaf(&plan.Leaf{Dataset: s.ds, Alias: s.alias, Filter: s.filter, Project: s.project})
	}
	j := &plan.Join{
		Left: leaf(c.left), Right: leaf(c.right),
		LeftKeys: c.left.qualifiedKeys(), RightKeys: c.right.qualifiedKeys(),
		Algo:      map[refAlgo]plan.Algo{refHash: plan.AlgoHash, refBroadcast: plan.AlgoBroadcast, refIndexNL: plan.AlgoIndexNL}[c.algo],
		BuildLeft: c.buildLeft || c.algo == refIndexNL,
	}
	return collectJoin(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
		return JoinInto(ctx, j, mk)
	})
}

// runAgainstReference executes one join case six times on fresh, identically
// loaded contexts — through the relation-in entry points, as a pipeline over
// scan sources, and as a plan node through the dispatcher, each with the
// vector kernels and with the noVec hook forcing the scalar fallbacks (the
// one in-production reference that stays) — and holds every run to the model
// for rows, order, schema and partitioning, and to the golden file for
// counters and the ordered row digest. It returns the counters so a caller
// can check the job metered what it meant to.
func runAgainstReference(t *testing.T, nodes int, load func(ctx *Context), c joinCase) cluster.Snapshot {
	t.Helper()
	var snap cluster.Snapshot
	for _, form := range []struct {
		name string
		job  func(ctx *Context) (*Relation, error)
	}{{"relations", c.viaRelations}, {"sources", c.viaSources}, {"plan", c.viaPlan}} {
		for _, noVec := range []bool{false, true} {
			mode := fmt.Sprintf("%s/noVec=%v", form.name, noVec)
			ctx := testCtx(t, nodes)
			ctx.noVec = noVec
			load(ctx)
			rel, err := form.job(ctx)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if ctx.Spill != nil {
				if err := ctx.Spill.Sweep(); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
			snap = ctx.Cluster.Acct().Snapshot()
			got := relRows(rel)
			checkGolden(t, mode, goldenCell{Rows: digestRows(got), Counters: snap})

			parts, cols, partCols := c.expected(t, ctx)
			want := relRows(&Relation{Parts: parts})
			if c.unordered {
				slices.Sort(got)
				slices.Sort(want)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows, the model has %d", mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: row %d is %s, the model has %s", mode, i, got[i], want[i])
				}
			}
			var names []string
			for _, f := range rel.Schema.Fields {
				names = append(names, f.QName())
			}
			if !slices.Equal(names, cols) {
				t.Errorf("%s: schema %v, the model has %v", mode, names, cols)
			}
			if !slices.Equal(rel.PartCols, partCols) {
				t.Errorf("%s: PartCols %v, the model has %v", mode, rel.PartCols, partCols)
			}
		}
	}
	return snap
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/pipeline_golden.json from this run")

// goldenCell is what testdata/pipeline_golden.json pins per join case.
type goldenCell struct {
	Rows     string           `json:"rows"` // digest of relRows, order included
	Counters cluster.Snapshot `json:"counters"`
}

func digestRows(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintln(h, r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenCells is pipeline_golden.json, loaded by the first check.
var goldenCells map[string]goldenCell

// checkGolden holds got to the cell recorded under the running test's name.
// Under -update the first run of a case to get here (the relation-in entry
// points with the vector kernels) rewrites the cell instead, and the other
// five are held to that.
func checkGolden(t *testing.T, mode string, got goldenCell) {
	t.Helper()
	path := filepath.Join("testdata", "pipeline_golden.json")
	if goldenCells == nil {
		goldenCells = map[string]goldenCell{}
		if !*updateGolden {
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &goldenCells)
			}
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
		}
	}
	want, ok := goldenCells[t.Name()]
	if !ok && *updateGolden {
		goldenCells[t.Name()] = got
		data, err := json.MarshalIndent(goldenCells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !ok {
		t.Fatalf("%s: not in %s (run with -update to record)", mode, path)
	}
	if got.Counters != want.Counters {
		t.Errorf("%s: counters drifted\n got: %+v\nwant: %+v", mode, got.Counters, want.Counters)
	}
	if got.Rows != want.Rows {
		t.Errorf("%s: ordered row digest drifted: got %s, want %s", mode, got.Rows, want.Rows)
	}
}
