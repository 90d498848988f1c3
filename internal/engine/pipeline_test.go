package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dynopt/internal/cluster"
	"dynopt/internal/expr"
	"dynopt/internal/faults/leakcheck"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// testChunkRows, when nonzero, is applied by testCtx to Context.ChunkRows —
// the same field Config.ChunkRows feeds through Open — so chunk-boundary
// tests exercise the real configuration path rather than a test backdoor.
var testChunkRows int

// withChunkCap shrinks the pipeline chunk size for the duration of a test
// so chunk boundaries (size-1 chunks, rows exactly at capacity) are
// exercised on small inputs.
func withChunkCap(t *testing.T, n int) {
	t.Helper()
	old := testChunkRows
	testChunkRows = n
	t.Cleanup(func() { testChunkRows = old })
}

// relRows flattens a relation partition-by-partition for exact (order
// included) comparison.
func relRows(rel *Relation) []string {
	var out []string
	for p, part := range rel.Parts {
		for _, t := range part {
			out = append(out, fmt.Sprintf("p%d:%s", p, t))
		}
	}
	return out
}

// collectStream adapts a streaming join entry point back to a Relation for
// comparison against the batch reference.
func collectStream(nparts int, run func(mk SinkFactory) error) (*Relation, error) {
	var rsink *relationSink
	var schema *types.Schema
	var pc []int
	mk := func(s *types.Schema, partCols []int) (Sink, error) {
		schema, pc = s, partCols
		rsink = newRelationSink(nparts)
		return rsink, nil
	}
	if err := run(mk); err != nil {
		return nil, err
	}
	return &Relation{Schema: schema, Parts: rsink.parts, PartCols: pc}, nil
}

// runBothModes executes the batch and streaming forms of the same join job
// on fresh but identically loaded contexts and requires identical rows
// (order included), identical schema and partitioning metadata, and
// identical counters. The streaming form runs twice — with the vector
// kernels and with the noVec hook forcing the scalar fallbacks — and both
// are held to the batch reference, whose counters are returned so a caller
// can check the job metered what it meant to.
func runBothModes(t *testing.T, nodes int, load func(ctx *Context),
	batchJob func(ctx *Context) (*Relation, error), streamJob func(ctx *Context) (*Relation, error)) cluster.Snapshot {
	t.Helper()
	type res struct {
		rel  *Relation
		snap cluster.Snapshot
	}
	run := func(mode string, job func(ctx *Context) (*Relation, error)) res {
		ctx := testCtx(t, nodes)
		ctx.Batch, ctx.noVec = mode == "batch", mode == "stream-scalar"
		load(ctx)
		rel, err := job(ctx)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return res{rel: rel, snap: ctx.Cluster.Acct().Snapshot()}
	}
	b := run("batch", batchJob)
	br := relRows(b.rel)
	for _, mode := range []string{"stream", "stream-scalar"} {
		s := run(mode, streamJob)
		if b.snap != s.snap {
			t.Errorf("counters diverged\nbatch:  %+v\n%s: %+v", b.snap, mode, s.snap)
		}
		sr := relRows(s.rel)
		if len(br) != len(sr) {
			t.Fatalf("row count diverged: batch %d, %s %d", len(br), mode, len(sr))
		}
		for i := range br {
			if br[i] != sr[i] {
				t.Fatalf("row %d diverged:\nbatch:  %s\n%s: %s", i, br[i], mode, sr[i])
			}
		}
		if b.rel.Schema.String() != s.rel.Schema.String() {
			t.Errorf("%s: schema diverged: %s vs %s", mode, b.rel.Schema, s.rel.Schema)
		}
		if fmt.Sprint(b.rel.PartCols) != fmt.Sprint(s.rel.PartCols) {
			t.Errorf("%s: PartCols diverged: %v vs %v", mode, b.rel.PartCols, s.rel.PartCols)
		}
	}
	return b.snap
}

// TestStreamMatchesBatchChunkBoundaries sweeps the streaming joins across
// chunk capacities that land rows exactly at, below, and far beyond chunk
// boundaries, including empty partitions (more partitions than rows) and
// selective filters that empty entire scan windows.
func TestStreamMatchesBatchChunkBoundaries(t *testing.T) {
	leakcheck.Check(t)
	payFilter := func() expr.Expr {
		return &expr.Compare{Op: expr.CmpGe,
			L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(900)}}
	}
	for _, cc := range []int{1, 3, 25, 1024} {
		t.Run(fmt.Sprintf("chunkCap=%d", cc), func(t *testing.T) {
			withChunkCap(t, cc)
			// 100 rows over 4 nodes: partitions hold ~25 rows, so cc=25 puts
			// rows exactly at capacity; cc=1 forces a chunk per row. The dim
			// side holds 3 rows over 4 nodes, leaving at least one partition
			// empty.
			load := func(ctx *Context) {
				register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 3))
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
			}
			t.Run("hash-scattered", func(t *testing.T) {
				// Probe (fact) is partitioned on id but joined on fk: the
				// scatter exchange runs.
				runBothModes(t, 4, load,
					func(ctx *Context) (*Relation, error) {
						f, err := ScanByName(ctx, "fact", "f", nil, nil)
						if err != nil {
							return nil, err
						}
						d, err := ScanByName(ctx, "dim", "d", nil, nil)
						if err != nil {
							return nil, err
						}
						return HashJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, false)
					},
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
							if err != nil {
								return err
							}
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							// buildLeft=false in the batch call means the dim
							// (right) side builds; probe columns form the left
							// half, so buildFirst=false.
							return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
			})
			t.Run("hash-prepartitioned", func(t *testing.T) {
				// Probe pre-partitioned on the join key: the exchange is
				// skipped and the local pipeline runs.
				runBothModes(t, 4, load,
					func(ctx *Context) (*Relation, error) {
						f, err := ScanByName(ctx, "fact", "f", nil, nil)
						if err != nil {
							return nil, err
						}
						d, err := ScanByName(ctx, "dim", "d", nil, nil)
						if err != nil {
							return nil, err
						}
						return HashJoin(ctx, f, d, []string{"f.id"}, []string{"d.id"}, false)
					},
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
							if err != nil {
								return err
							}
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.id"}, false, mk)
						})
					})
			})
			t.Run("broadcast", func(t *testing.T) {
				runBothModes(t, 4, load,
					func(ctx *Context) (*Relation, error) {
						f, err := ScanByName(ctx, "fact", "f", nil, nil)
						if err != nil {
							return nil, err
						}
						d, err := ScanByName(ctx, "dim", "d", nil, nil)
						if err != nil {
							return nil, err
						}
						return BroadcastJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, false)
					},
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							build, err := Scan(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
							if err != nil {
								return err
							}
							return BroadcastJoinStream(ctx, build, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
			})
			t.Run("indexnl", func(t *testing.T) {
				loadIdx := func(ctx *Context) {
					load(ctx)
					ds, _ := ctx.Catalog.Get("fact")
					if _, err := storage.BuildIndex(ds, "fk"); err != nil {
						t.Fatal(err)
					}
				}
				runBothModes(t, 4, loadIdx,
					func(ctx *Context) (*Relation, error) {
						ds, _ := ctx.Catalog.Get("fact")
						d, err := ScanByName(ctx, "dim", "d", nil, nil)
						if err != nil {
							return nil, err
						}
						return IndexNLJoin(ctx, d, ds, "f", []string{"d.id"}, []string{"fk"}, nil)
					},
					func(ctx *Context) (*Relation, error) {
						ds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							return IndexNLJoinStream(ctx, dsrc, ds, "f", []string{"d.id"}, []string{"fk"}, nil, mk)
						})
					})
			})
			t.Run("filtered-scan-join", func(t *testing.T) {
				// Selective filter empties most scan windows; projection
				// exercises the arena-backed streaming decode.
				runBothModes(t, 4, load,
					func(ctx *Context) (*Relation, error) {
						f, err := ScanByName(ctx, "fact", "f", payFilter(), []string{"id", "fk"})
						if err != nil {
							return nil, err
						}
						d, err := ScanByName(ctx, "dim", "d", nil, nil)
						if err != nil {
							return nil, err
						}
						return HashJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, false)
					},
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", payFilter(), []string{"id", "fk"})
							if err != nil {
								return err
							}
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
			})
		})
	}
}

// TestStreamMatchesBatchEmptyInputs: zero-row probe and build sides flow
// through the pipeline without emitting chunks.
func TestStreamMatchesBatchEmptyInputs(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 2)
	load := func(ctx *Context) {
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, nil)
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}})
	}
	runBothModes(t, 4, load,
		func(ctx *Context) (*Relation, error) {
			f, err := ScanByName(ctx, "fact", "f", nil, nil)
			if err != nil {
				return nil, err
			}
			d, err := ScanByName(ctx, "dim", "d", nil, nil)
			if err != nil {
				return nil, err
			}
			return HashJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, false)
		},
		func(ctx *Context) (*Relation, error) {
			fds, _ := ctx.Catalog.Get("fact")
			dds, _ := ctx.Catalog.Get("dim")
			return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
				if err != nil {
					return err
				}
				dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
				if err != nil {
					return err
				}
				return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
			})
		})
}

// registerTyped registers a dataset with an explicit schema, for tests that
// need non-int columns alongside the int helpers.
func registerTyped(t testing.TB, ctx *Context, name string, pk []string, schema *types.Schema, rows []types.Tuple) *storage.Dataset {
	t.Helper()
	ds, st, err := storage.Build(name, schema, pk, rows, ctx.Cluster.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Catalog.Register(ds, st); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStreamMatchesBatchSelChunks pins the selection-vector chunk form
// end-to-end: a filter without projection emits stored windows with a Sel
// sidecar, which must flow through the scatter exchange, the local join
// pipeline (joinInto over a selection), and columnar key hashing with results and counters
// identical to the dense batch reference. Covers the vectorized int and
// string kernels, NULLs in filtered columns, and the scalar fallback for UDF
// predicates.
func TestStreamMatchesBatchSelChunks(t *testing.T) {
	leakcheck.Check(t)
	strRows := func(n int) []types.Tuple {
		names := []string{"ash", "mint", "zinc", "kelp", "moss", "alder"}
		rows := make([]types.Tuple, n)
		for i := range rows {
			nm := types.Str(names[i%len(names)])
			if i%11 == 0 {
				nm = types.Null() // NULL never passes the filter, both modes
			}
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 3)), nm}
		}
		return rows
	}
	strSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "fk", Kind: types.KindInt},
		types.Field{Name: "name", Kind: types.KindString},
	)
	joinStream := func(probe, build string, probeKey, buildKey string, filter expr.Expr) func(ctx *Context) (*Relation, error) {
		return func(ctx *Context) (*Relation, error) {
			pds, _ := ctx.Catalog.Get(probe)
			bds, _ := ctx.Catalog.Get(build)
			return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				psrc, err := ScanSource(ctx, pds, "f", filter, nil)
				if err != nil {
					return err
				}
				bsrc, err := ScanSource(ctx, bds, "d", nil, nil)
				if err != nil {
					return err
				}
				return HashJoinStreamSources(ctx, bsrc, psrc, []string{buildKey}, []string{probeKey}, false, mk)
			})
		}
	}
	joinBatch := func(probe, build string, probeKey, buildKey string, filter expr.Expr) func(ctx *Context) (*Relation, error) {
		return func(ctx *Context) (*Relation, error) {
			f, err := ScanByName(ctx, probe, "f", filter, nil)
			if err != nil {
				return nil, err
			}
			d, err := ScanByName(ctx, build, "d", nil, nil)
			if err != nil {
				return nil, err
			}
			return HashJoin(ctx, f, d, []string{probeKey}, []string{buildKey}, false)
		}
	}
	for _, cc := range []int{3, 25} {
		t.Run(fmt.Sprintf("chunkCap=%d", cc), func(t *testing.T) {
			withChunkCap(t, cc)
			loadInt := func(ctx *Context) {
				register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 3))
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
			}
			t.Run("int-filter-scattered", func(t *testing.T) {
				// Partial-pass windows (pay%70<35 keeps runs of rows) emit sel
				// chunks into the scatter exchange: columnar hashing walks Sel.
				filt := &expr.Compare{Op: expr.CmpLt,
					L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(500)}}
				runBothModes(t, 4, loadInt,
					joinBatch("fact", "dim", "f.fk", "d.id", filt),
					joinStream("fact", "dim", "f.fk", "d.id", filt))
			})
			t.Run("int-filter-prepartitioned", func(t *testing.T) {
				// Probe pre-partitioned on the join key: sel chunks skip the
				// exchange and hit the probe loop directly.
				filt := &expr.Compare{Op: expr.CmpGe,
					L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(300)}}
				runBothModes(t, 4, loadInt,
					joinBatch("fact", "dim", "f.id", "d.id", filt),
					joinStream("fact", "dim", "f.id", "d.id", filt))
			})
			t.Run("string-filter", func(t *testing.T) {
				// String comparison kernel over a column with NULLs.
				load := func(ctx *Context) {
					registerTyped(t, ctx, "fact", []string{"id"}, strSchema, strRows(90))
					register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
				}
				filt := &expr.Compare{Op: expr.CmpGe,
					L: &expr.Column{Qualifier: "f", Name: "name"}, R: &expr.Literal{Val: types.Str("m")}}
				runBothModes(t, 4, load,
					joinBatch("fact", "dim", "f.fk", "d.id", filt),
					joinStream("fact", "dim", "f.fk", "d.id", filt))
			})
			t.Run("udf-filter", func(t *testing.T) {
				// A Call predicate has no kernel: the cursor filters with the
				// scalar Compiled but still emits sel chunks.
				load := func(ctx *Context) {
					loadInt(ctx)
					if err := ctx.UDFs.Register(expr.UDF{Name: "selmod", Fn: func(args []types.Value) (types.Value, error) {
						if args[0].IsNull() {
							return types.Null(), nil
						}
						return types.Int(args[0].I() % 7), nil
					}}); err != nil {
						t.Fatal(err)
					}
				}
				filt := &expr.Compare{Op: expr.CmpNe,
					L: &expr.Call{Name: "selmod", Args: []expr.Expr{&expr.Column{Qualifier: "f", Name: "id"}}},
					R: &expr.Literal{Val: types.Int(0)}}
				runBothModes(t, 4, load,
					joinBatch("fact", "dim", "f.fk", "d.id", filt),
					joinStream("fact", "dim", "f.fk", "d.id", filt))
			})
		})
	}
}

// TestStreamRowBytesMeteringMatchesBatch holds Chunk.RowBytes to the batch
// exchange, which walks every row it meters: a projected fact table whose
// every projected column is fixed-width (the scan stamps RowBytes and no
// streaming consumer reads a row to size it) and the same table with NULLs
// in a projected column (RowBytes is 0 and every consumer walks), through
// each place that sizes a chunk's live rows — the scatter's route, the local
// probe's size fill, the build side's collect, the replicated outer's sum —
// under a memory budget small enough that the simulated spill model reads
// the probe sizes too.
func TestStreamRowBytesMeteringMatchesBatch(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 16)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "fk", Kind: types.KindInt},
		types.Field{Name: "pay", Kind: types.KindInt},
		types.Field{Name: "note", Kind: types.KindString},
	)
	project := []string{"pay", "id", "fk"} // drops the one variable-width column
	dim := make([][]int64, 40)
	for i := range dim {
		dim[i] = []int64{int64(i), int64(i * 3)}
	}
	for _, tc := range []struct {
		name      string
		nullEvery int
	}{{"fixed-width", 0}, {"null-in-projection", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			load := func(ctx *Context) {
				rows := make([]types.Tuple, 400)
				for i := range rows {
					pay := types.Int(int64(i * 10))
					if tc.nullEvery > 0 && i%tc.nullEvery == 0 {
						pay = types.Null()
					}
					rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 40)), pay, types.Str("note"[:i%5])}
				}
				fact := registerTyped(t, ctx, "fact", []string{"id"}, schema, rows)
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
				ctx.Cluster.SetMemoryPerNodeBytes(64)
				// The case is what it says: the scan knows the projected width
				// of every partition exactly when no projected value is NULL.
				want := int64(27)
				if tc.nullEvery > 0 {
					want = 0
				}
				for p := range fact.Parts {
					if rb := fact.RowBytes(p, []int{2, 0, 1}); rb != want {
						t.Fatalf("partition %d: RowBytes over the projection = %d, want %d", p, rb, want)
					}
				}
			}
			// hashJobs joins fact (projected) with dim on fKey = d.id; build
			// names the side under the hash table.
			hashJobs := func(fKey string, buildFact bool) (batch, stream func(ctx *Context) (*Relation, error)) {
				batch = func(ctx *Context) (*Relation, error) {
					f, err := ScanByName(ctx, "fact", "f", nil, project)
					if err != nil {
						return nil, err
					}
					d, err := ScanByName(ctx, "dim", "d", nil, nil)
					if err != nil {
						return nil, err
					}
					return HashJoin(ctx, f, d, []string{fKey}, []string{"d.id"}, buildFact)
				}
				stream = func(ctx *Context) (*Relation, error) {
					fds, _ := ctx.Catalog.Get("fact")
					dds, _ := ctx.Catalog.Get("dim")
					return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
						fsrc, err := ScanSource(ctx, fds, "f", nil, project)
						if err != nil {
							return err
						}
						dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
						if err != nil {
							return err
						}
						if buildFact {
							return HashJoinStreamSources(ctx, fsrc, dsrc, []string{fKey}, []string{"d.id"}, true, mk)
						}
						return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{fKey}, false, mk)
					})
				}
				return batch, stream
			}
			t.Run("scattered-probe", func(t *testing.T) {
				batch, stream := hashJobs("f.fk", false)
				if snap := runBothModes(t, 4, load, batch, stream); snap.ShuffleBytes == 0 || snap.SpillBytes == 0 {
					t.Fatalf("vacuous: nothing shuffled or nothing spilled: %+v", snap)
				}
			})
			t.Run("local-probe", func(t *testing.T) {
				batch, stream := hashJobs("f.id", false)
				if snap := runBothModes(t, 4, load, batch, stream); snap.ShuffleBytes != 0 || snap.SpillBytes == 0 {
					t.Fatalf("vacuous: the probe moved or nothing spilled: %+v", snap)
				}
			})
			t.Run("collected-build", func(t *testing.T) {
				batch, stream := hashJobs("f.fk", true)
				if snap := runBothModes(t, 4, load, batch, stream); snap.ShuffleBytes == 0 || snap.SpillBytes == 0 {
					t.Fatalf("vacuous: nothing shuffled or nothing spilled: %+v", snap)
				}
			})
			t.Run("broadcast-probe", func(t *testing.T) {
				snap := runBothModes(t, 4, load,
					func(ctx *Context) (*Relation, error) {
						f, err := ScanByName(ctx, "fact", "f", nil, project)
						if err != nil {
							return nil, err
						}
						d, err := ScanByName(ctx, "dim", "d", nil, nil)
						if err != nil {
							return nil, err
						}
						return BroadcastJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, false)
					},
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							build, err := Scan(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							fsrc, err := ScanSource(ctx, fds, "f", nil, project)
							if err != nil {
								return err
							}
							return BroadcastJoinStream(ctx, build, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
				if snap.SpillBytes == 0 {
					t.Fatalf("vacuous: nothing spilled: %+v", snap)
				}
			})
			t.Run("replicated-outer", func(t *testing.T) {
				loadIdx := func(ctx *Context) {
					load(ctx)
					ds, _ := ctx.Catalog.Get("dim")
					if _, err := storage.BuildIndex(ds, "id"); err != nil {
						t.Fatal(err)
					}
				}
				snap := runBothModes(t, 4, loadIdx,
					func(ctx *Context) (*Relation, error) {
						dds, _ := ctx.Catalog.Get("dim")
						f, err := ScanByName(ctx, "fact", "f", nil, project)
						if err != nil {
							return nil, err
						}
						return IndexNLJoin(ctx, f, dds, "d", []string{"f.fk"}, []string{"id"}, nil)
					},
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", nil, project)
							if err != nil {
								return err
							}
							return IndexNLJoinStream(ctx, fsrc, dds, "d", []string{"f.fk"}, []string{"id"}, nil, mk)
						})
					})
				if snap.BroadcastBytes == 0 {
					t.Fatalf("vacuous: no outer bytes replicated: %+v", snap)
				}
			})
		})
	}
}

// TestScanChunkRowBytes pins Chunk.RowBytes at its one producer: every chunk
// of a resident base scan carries the partition's width profile folded
// through the scan's projection — non-zero exactly when every projected
// value of the partition has one encoded size, and then equal to
// EncodedSizeCols(Proj) of every live row — while temps and paged scans,
// which have no profile, leave it 0.
func TestScanChunkRowBytes(t *testing.T) {
	withChunkCap(t, 16)
	ctx := testCtx(t, 3)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "f", Kind: types.KindFloat},
		types.Field{Name: "holey", Kind: types.KindInt},
		types.Field{Name: "tag", Kind: types.KindString},
		types.Field{Name: "name", Kind: types.KindString},
	)
	rows := make([]types.Tuple, 300)
	for i := range rows {
		holey := types.Int(int64(i))
		if i%10 == 7 {
			holey = types.Null()
		}
		rows[i] = types.Tuple{types.Int(int64(i)), types.Float(float64(i) / 3), holey, types.Str("tag"), types.Str("name"[:1+i%4])}
	}
	base := registerTyped(t, ctx, "t", []string{"id"}, schema, rows)
	filter := &expr.Compare{Op: expr.CmpLt,
		L: &expr.Column{Qualifier: "a", Name: "id"}, R: &expr.Literal{Val: types.Int(150)}}

	// scan checks the contract on every chunk of the scan and requires each
	// to carry RowBytes = want.
	scan := func(ctx *Context, ds *storage.Dataset, filter expr.Expr, project []string, want int64) {
		t.Helper()
		src, err := ScanSource(ctx, ds, "a", filter, project)
		if err != nil {
			t.Fatal(err)
		}
		chunks := 0
		for p := 0; p < src.Parts(); p++ {
			cur, err := src.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			for {
				c, err := cur.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				chunks++
				if c.RowBytes != want {
					t.Fatalf("%s project %v (filtered: %v): a chunk of partition %d carries RowBytes = %d, want %d",
						ds.Name, project, filter != nil, p, c.RowBytes, want)
				}
				if c.RowBytes == 0 {
					continue
				}
				for k := 0; k < c.Live(); k++ {
					r := k
					if c.Sel != nil {
						r = int(c.Sel[k])
					}
					got := int64(c.Rows[r].EncodedSizeCols(c.Proj)) //dynopt:size-ok the reference walk RowBytes stands in for
					if got != c.RowBytes {
						t.Fatalf("project %v: live row %s weighs %d, chunk says RowBytes = %d", project, c.Rows[r], got, c.RowBytes)
					}
				}
			}
		}
		if chunks == 0 {
			t.Fatalf("%s project %v: the scan produced no chunk", ds.Name, project)
		}
	}
	for _, tc := range []struct {
		project []string
		want    int64
	}{
		{[]string{"f", "id"}, 18},
		{[]string{"tag", "id"}, 13}, // strings of one length are a fixed width too
		{[]string{"id", "holey"}, 0},
		{[]string{"name"}, 0},
		{nil, 0},
	} {
		scan(ctx, base, nil, tc.project, tc.want)
		scan(ctx, base, filter, tc.project, tc.want)
	}

	rel, err := Scan(ctx, base, "a", nil, []string{"f", "id"})
	if err != nil {
		t.Fatal(err)
	}
	temp, _, err := Materialize(ctx, rel, "tmp_fixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	scan(ctx, temp, nil, nil, 0)
	pctx := pagedCopy(t, ctx, "t", 64, 0)
	pds, _ := pctx.Catalog.Get("t")
	scan(pctx, pds, nil, []string{"f", "id"}, 0)
}

// TestStreamSpillSelChunks drives sel chunks into the spilling DHHJ probe:
// a filtered, unprojected probe side streams Rows+Sel chunks whose live rows
// and per-row hashes chunkSeq must walk through the selection.
func TestStreamSpillSelChunks(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 7)
	filt := func() expr.Expr {
		return &expr.Compare{Op: expr.CmpGe,
			L: &expr.Column{Qualifier: "d", Name: "attr"}, R: &expr.Literal{Val: types.Int(60)}}
	}
	run := func(batch bool) ([]string, cluster.Snapshot) {
		ctx := testCtx(t, 2)
		ctx.Batch = batch
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(4000, 64))
		dim := make([][]int64, 64)
		for i := range dim {
			dim[i] = []int64{int64(i), int64(i * 3)}
		}
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
		fact, _ := ctx.Catalog.Get("fact")
		ctx.Cluster.SetMemoryPerNodeBytes(fact.ByteSize() / int64(2*8))
		ctx.Spill = storage.NewSpillManager(t.TempDir(), "selspill_")
		ctx.Grant = ctx.Cluster.Governor().Grant()
		defer ctx.Grant.Close()
		var rel *Relation
		var err error
		if batch {
			var f, d *Relation
			f, err = ScanByName(ctx, "fact", "f", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err = ScanByName(ctx, "dim", "d", filt(), nil)
			if err != nil {
				t.Fatal(err)
			}
			rel, err = HashJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, true)
		} else {
			fds, _ := ctx.Catalog.Get("fact")
			dds, _ := ctx.Catalog.Get("dim")
			rel, err = collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				fsrc, serr := ScanSource(ctx, fds, "f", nil, nil)
				if serr != nil {
					return serr
				}
				dsrc, serr := ScanSource(ctx, dds, "d", filt(), nil)
				if serr != nil {
					return serr
				}
				return HashJoinStreamSources(ctx, fsrc, dsrc, []string{"f.fk"}, []string{"d.id"}, true, mk)
			})
		}
		if err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		if err := ctx.Spill.Sweep(); err != nil {
			t.Fatal(err)
		}
		return relRows(rel), ctx.Cluster.Acct().Snapshot()
	}
	brows, bsnap := run(true)
	srows, ssnap := run(false)
	if bsnap.SpillBytes == 0 {
		t.Fatal("budget did not force spilling; test is vacuous")
	}
	if bsnap != ssnap {
		t.Errorf("counters diverged\nbatch:  %+v\nstream: %+v", bsnap, ssnap)
	}
	if len(brows) != len(srows) {
		t.Fatalf("row count diverged: %d vs %d", len(brows), len(srows))
	}
	for i := range brows {
		if brows[i] != srows[i] {
			t.Fatalf("row %d diverged: %s vs %s", i, brows[i], srows[i])
		}
	}
}

// TestStreamSpillMatchesBatch runs the real-spill DHHJ in both modes under
// a budget forcing eviction: identical rows and identical spill metering,
// with the streaming probe arriving chunk-by-chunk.
func TestStreamSpillMatchesBatch(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 7)
	type res struct {
		rows []string
		snap cluster.Snapshot
	}
	run := func(batch bool) res {
		ctx := testCtx(t, 2)
		ctx.Batch = batch
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(4000, 64))
		dim := make([][]int64, 64)
		for i := range dim {
			dim[i] = []int64{int64(i), int64(i * 3)}
		}
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
		fact, _ := ctx.Catalog.Get("fact")
		ctx.Cluster.SetMemoryPerNodeBytes(fact.ByteSize() / int64(2*8)) // 1/8 of per-node build bytes
		ctx.Spill = storage.NewSpillManager(t.TempDir(), "pipe_")
		ctx.Grant = ctx.Cluster.Governor().Grant()
		defer ctx.Grant.Close()
		var rel *Relation
		var err error
		if batch {
			var f, d *Relation
			f, err = ScanByName(ctx, "fact", "f", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err = ScanByName(ctx, "dim", "d", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rel, err = HashJoin(ctx, f, d, []string{"f.fk"}, []string{"d.id"}, true)
		} else {
			fds, _ := ctx.Catalog.Get("fact")
			dds, _ := ctx.Catalog.Get("dim")
			rel, err = collectStream(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				fsrc, serr := ScanSource(ctx, fds, "f", nil, nil)
				if serr != nil {
					return serr
				}
				dsrc, serr := ScanSource(ctx, dds, "d", nil, nil)
				if serr != nil {
					return serr
				}
				// fact (left) builds and spills; dim probes chunk-by-chunk.
				return HashJoinStreamSources(ctx, fsrc, dsrc, []string{"f.fk"}, []string{"d.id"}, true, mk)
			})
		}
		if err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		if err := ctx.Spill.Sweep(); err != nil {
			t.Fatal(err)
		}
		return res{rows: relRows(rel), snap: ctx.Cluster.Acct().Snapshot()}
	}
	b, s := run(true), run(false)
	if b.snap.SpillBytes == 0 {
		t.Fatal("budget did not force spilling; test is vacuous")
	}
	if b.snap != s.snap {
		t.Errorf("counters diverged\nbatch:  %+v\nstream: %+v", b.snap, s.snap)
	}
	if len(b.rows) != len(s.rows) {
		t.Fatalf("row count diverged: %d vs %d", len(b.rows), len(s.rows))
	}
	for i := range b.rows {
		if b.rows[i] != s.rows[i] {
			t.Fatalf("row %d diverged: %s vs %s", i, b.rows[i], s.rows[i])
		}
	}
}

// TestForEachPartBoundedWorkers pins the worker-pool contract: concurrency
// never exceeds GOMAXPROCS, partitions are claimed in index order
// (work-conserving — a freed worker immediately takes the next pending
// partition), and a skewed partition set still completes with every
// partition executed exactly once.
func TestForEachPartBoundedWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const nparts = 64
	var inFlight, peak atomic.Int64
	var started atomic.Int64
	ran := make([]atomic.Int64, nparts)
	starts := make([]int64, nparts) // start sequence per partition
	err := forEachPart(nparts, func(p int) error {
		cur := inFlight.Add(1)
		for {
			pk := peak.Load()
			if cur <= pk || peak.CompareAndSwap(pk, cur) {
				break
			}
		}
		starts[p] = started.Add(1)
		ran[p].Add(1)
		if p == 0 {
			time.Sleep(20 * time.Millisecond) // skew: one giant partition
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrency %d exceeds GOMAXPROCS=2", got)
	}
	for p := range ran {
		if ran[p].Load() != 1 {
			t.Errorf("partition %d ran %d times", p, ran[p].Load())
		}
	}
	// Work-conserving index order: partition p's start sequence can trail
	// its index by at most the pool size (workers claim indices from a
	// shared counter), so sequence numbers grow with partition index.
	for p := 1; p < nparts; p++ {
		if starts[p] < starts[p-1]-2 {
			t.Errorf("partition %d started at seq %d, before partition %d at %d", p, starts[p], p-1, starts[p-1])
		}
	}
}

// TestForEachPartSerialOnOneProc: a 64-partition layout on a 1-proc box
// runs serially in the calling goroutine, still completing every partition.
func TestForEachPartSerialOnOneProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var order []int
	err := forEachPart(64, func(p int) error {
		order = append(order, p) // no locking needed: serial path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 64 {
		t.Fatalf("ran %d partitions", len(order))
	}
	for p, got := range order {
		if got != p {
			t.Fatalf("serial path ran partition %d at position %d", got, p)
		}
	}
}
