package dynopt

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynopt/internal/bench"
	"dynopt/internal/cluster"
	"dynopt/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// readGolden loads a testdata golden file of cells keyed by name.
func readGolden[T any](t *testing.T, file string) map[string]T {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := map[string]T{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeGolden rewrites a testdata golden file from this run's cells.
func writeGolden[T any](t *testing.T, file string, got map[string]T) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cells)", path, len(got))
}

// TestCountersGolden pins Metrics.Counters for all six strategies on the
// four evaluation queries (TPC-DS Q17/Q50, TPC-H Q8/Q9) to a golden
// snapshot. The accountant meters *modeled* work — shuffle, broadcast,
// build/probe, materialization, spill — and that model must stay put while
// the substrate underneath it gets faster: any performance work that shifts
// these counters is changing query semantics or cost accounting, not just
// CPU time. Regenerate deliberately with `go test -run CountersGolden
// -update` and justify the diff.
func TestCountersGolden(t *testing.T) {
	env, err := bench.NewEnv(1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]cluster.Snapshot{}
	for _, q := range bench.Queries() {
		for _, s := range env.Strategies() {
			rep, err := env.RunOne(s, q.SQL)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s.Name(), err)
			}
			got[q.Name+"/"+s.Name()] = rep.Counters
		}
	}
	if *updateGolden {
		writeGolden(t, "counters_golden.json", got)
		return
	}
	want := readGolden[cluster.Snapshot](t, "counters_golden.json")
	if len(got) != len(want) {
		t.Errorf("cell count: got %d, golden has %d", len(got), len(want))
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in golden file", k)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: counters drifted\n got: %+v\nwant: %+v", k, g, w)
		}
	}
}

// resultCell is what testdata/results_golden.json pins for one cell of the
// evaluation grid.
type resultCell struct {
	// Rows digests the result's columns and rows in result order.
	Rows string `json:"rows"`
	// Counters is set on the indexed half of the grid only:
	// counters_golden.json already pins the un-indexed half.
	Counters *cluster.Snapshot `json:"counters,omitempty"`
	// StagePlans is set for the dynamic strategy only: its stage log embeds
	// the row count every materialized stage landed.
	StagePlans []string `json:"stage_plans,omitempty"`
}

// rowDigest hashes a result's columns and rows, order included.
func rowDigest(res *engine.Result) string {
	h := sha256.New()
	fmt.Fprintln(h, res.Columns)
	for _, row := range res.Rows {
		fmt.Fprintln(h, row)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStreamingMatchesBatchAllStrategies holds the execution path to the
// answers of the whole-relation batch path it replaced, recorded in
// testdata/results_golden.json from that path's last commit: every strategy
// of §7.2 on every Figure-7 query, with and without secondary indexes (so
// the INLJ plans of Figure 8 are covered too), must return the same rows in
// the same order, meter the same counters and — the dynamic strategy — log
// the same stage plans, whose row counts pin what each fused Sink landed.
// The goldens were produced by this engine, so this is a regression pin, not
// an oracle. Regenerate deliberately with `go test -run
// StreamingMatchesBatch -update` and justify the diff.
func TestStreamingMatchesBatchAllStrategies(t *testing.T) {
	var want map[string]resultCell
	if !*updateGolden {
		want = readGolden[resultCell](t, "results_golden.json")
	}
	got := map[string]resultCell{}
	for _, indexed := range []bool{false, true} {
		env, err := bench.NewEnv(1, 4, indexed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range bench.Queries() {
			// Strategies carry per-run state (pilot registries): Strategies
			// builds fresh ones per query.
			for _, s := range env.Strategies() {
				name := fmt.Sprintf("indexed=%v/%s/%s", indexed, q.Name, s.Name())
				t.Run(name, func(t *testing.T) {
					res, rep, err := env.RunOneResult(s, q.SQL)
					if err != nil {
						t.Fatal(err)
					}
					cell := resultCell{Rows: rowDigest(res)}
					if indexed {
						cell.Counters = &rep.Counters
					}
					if s.Name() == "dynamic" {
						cell.StagePlans = rep.StagePlans
					}
					got[name] = cell
					if want == nil {
						return
					}
					w, ok := want[name]
					if !ok {
						t.Fatal("not in golden file")
					}
					if !reflect.DeepEqual(cell, w) {
						g, _ := json.Marshal(cell)
						wj, _ := json.Marshal(w)
						t.Errorf("drifted\n got: %s\nwant: %s", g, wj)
					}
				})
			}
		}
	}
	if *updateGolden {
		writeGolden(t, "results_golden.json", got)
	} else if len(got) != len(want) {
		t.Errorf("cell count: got %d, golden has %d", len(got), len(want))
	}
}

// compareResults requires two results to agree on columns and on every row,
// order included.
func compareResults(t *testing.T, want, got *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Columns, got.Columns) {
		t.Fatalf("columns diverged: %v vs %v", want.Columns, got.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count diverged: want %d, got %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if fmt.Sprint(want.Rows[i]) != fmt.Sprint(got.Rows[i]) {
			t.Fatalf("row %d diverged:\nwant: %v\n got: %v", i, want.Rows[i], got.Rows[i])
		}
	}
}
