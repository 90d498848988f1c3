package engine

import (
	"fmt"
	"slices"
	"sync"

	"dynopt/internal/faults"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// flattenSchema applies the Sink's naming rule: qualified fields become
// flattened columns (a.x → a_x), the same rule query reconstruction
// applies, so the re-parsed reformulated query resolves against the temp.
func flattenSchema(relSchema *types.Schema) *types.Schema {
	flat := &types.Schema{Fields: make([]types.Field, relSchema.Len())}
	for i, f := range relSchema.Fields {
		flat.Fields[i] = types.Field{Name: sqlpp.FlattenName(f.Qualifier, f.Name), Kind: f.Kind}
	}
	return flat
}

// StreamSink is the Sink operator of Figure 4 fused into the producing
// stage: output chunks arriving from the join (or push-down scan) are
// observed for online statistics, metered as materialized-write I/O, sized,
// and appended to the temp dataset's partitions in the same pass that
// produced them — the relation is never re-walked. Counters and statistics
// are identical to the batch Materialize, which walks the finished relation
// instead.
type StreamSink struct {
	ctx       *Context
	name      string
	relSchema *types.Schema
	flat      *types.Schema
	partCols  []int

	statIdx []int // field offsets under statistics collection, ascending
	// blocks holds each partition's tuple headers as they arrive, one
	// exact-size copy per Emit; Finish joins them into the partition slice at
	// its final length. Appending to one growing slice would re-copy the
	// partition at every growth step: about three times its final size in
	// allocation, for headers that are a quarter of a narrow row's bytes.
	blocks    [][][]types.Tuple
	partBytes []int64
	partStats []*stats.DatasetStats
	fields    [][]*stats.FieldStats // [part][statIdx order] collector cache
	observed  []int64
}

// NewStreamSink prepares a sink writing nparts partitions to temp dataset
// name. statsFields names flattened columns to collect sketches on; nil
// collects none (row and byte counts are always recorded — the Planner
// needs sizes). partCols, when set, become the temp's recorded partitioning
// so a later join on the same keys skips its exchange.
func NewStreamSink(ctx *Context, relSchema *types.Schema, nparts int, name string, statsFields map[string]bool, partCols []int) *StreamSink {
	s := &StreamSink{
		ctx:       ctx,
		name:      name,
		relSchema: relSchema,
		flat:      flattenSchema(relSchema),
		partCols:  partCols,
		blocks:    make([][][]types.Tuple, nparts),
		partBytes: make([]int64, nparts),
		partStats: make([]*stats.DatasetStats, nparts),
		fields:    make([][]*stats.FieldStats, nparts),
		observed:  make([]int64, nparts),
	}
	if statsFields != nil {
		for i, f := range s.flat.Fields {
			if statsFields[f.Name] {
				s.statIdx = append(s.statIdx, i)
			}
		}
	}
	for p := 0; p < nparts; p++ {
		st := stats.NewDatasetStats(name)
		s.partStats[p] = st
		fs := make([]*stats.FieldStats, len(s.statIdx))
		for k, i := range s.statIdx {
			fs[k] = st.Field(s.flat.Fields[i].Name)
		}
		s.fields[p] = fs
	}
	return s
}

// RelSchema returns the qualified schema of the rows flowing into the sink.
func (s *StreamSink) RelSchema() *types.Schema { return s.relSchema }

// Emit implements Sink: one pass over the chunk covers statistics
// observation, byte sizing, and the partition append. Called concurrently
// for different partitions, in order within one.
func (s *StreamSink) Emit(p int, rows []types.Tuple) error {
	fs := s.fields[p]
	var bytes int64
	for _, t := range rows {
		bytes += int64(t.EncodedSize()) //dynopt:size-ok sink seeds the materialized relation's size cache as rows arrive
		for k, i := range s.statIdx {
			fs[k].Observe(t[i])
		}
	}
	s.partBytes[p] += bytes
	s.observed[p] += int64(len(rows)) * int64(len(s.statIdx))
	if len(rows) > 0 {
		s.blocks[p] = append(s.blocks[p], slices.Clone(rows))
	}
	return nil
}

// Finish seals the sink: joins each partition's blocks into its row slice,
// meters every partition's materialized write, merges the per-partition
// statistics in partition order, and returns the registered-ready temp
// dataset with its size cache seeded — tuple headers are copied once more
// here, but no row is read.
func (s *StreamSink) Finish() (*storage.Dataset, *stats.DatasetStats, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := s.ctx.Faults.Fire(faults.Point("sink.finish")); err != nil {
		return nil, nil, err
	}
	parts := make([][]types.Tuple, len(s.blocks))
	for p, blocks := range s.blocks {
		switch len(blocks) {
		case 0: // nothing arrived: the partition stays nil
		case 1:
			parts[p] = blocks[0] // already exact: nothing to join
		default:
			var total int
			for _, b := range blocks {
				total += len(b)
			}
			rows := make([]types.Tuple, 0, total)
			for _, b := range blocks {
				rows = append(rows, b...)
			}
			parts[p] = rows
		}
	}
	ds := &storage.Dataset{
		Name:    s.name,
		Schema:  s.flat,
		Parts:   parts,
		Indexes: map[string]*storage.Index{},
		Temp:    true,
	}
	if s.partCols != nil {
		pk := make([]string, len(s.partCols))
		for i, c := range s.partCols {
			pk[i] = s.flat.Fields[c].Name
		}
		ds.PrimaryKey = pk
	}
	acct := s.ctx.Accounting()
	var total int64
	merged := stats.NewDatasetStats(s.name)
	for p := range parts {
		st := s.partStats[p]
		st.RecordCount = int64(len(parts[p]))
		st.ByteSize = s.partBytes[p]
		acct.MatWriteRows.Add(st.RecordCount)
		acct.MatWriteBytes.Add(st.ByteSize)
		acct.StatsObserved.Add(s.observed[p])
		total += s.partBytes[p]
		merged.Merge(st)
	}
	ds.SeedSizes(s.partBytes, total)
	// No grant reservation here: materialized intermediates model on-disk
	// temps (their write and read-back I/O is metered as MatWriteBytes /
	// MatReadBytes, and as MatRead in Scan), not resident query memory —
	// holding them on the grant would double-count the next stage's build
	// side, whose tuples share backing with this output.
	return ds, merged, nil
}

// Materialize is the batch Sink: it writes a finished relation to the temp
// store (metering the write I/O of the blocking re-optimization point) and
// collects online statistics on the requested fields — the join keys of the
// remaining query, so no unnecessary sketches are built (§5.3). The
// streaming pipeline fuses this work into the producing stage via
// StreamSink; Materialize remains the batch-mode reference and the path for
// already-materialized relations.
func Materialize(ctx *Context, rel *Relation, name string, statsFields map[string]bool) (*storage.Dataset, *stats.DatasetStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Faults.Fire(faults.Point("sink.finish")); err != nil {
		return nil, nil, err
	}
	flat := flattenSchema(rel.Schema)
	ds := &storage.Dataset{
		Name:    name,
		Schema:  flat,
		Parts:   make([][]types.Tuple, len(rel.Parts)),
		Indexes: map[string]*storage.Index{},
		Temp:    true,
	}
	// Preserve partitioning so a later hash join on the same keys skips the
	// exchange (Reader restores PartCols from these fields).
	if rel.PartCols != nil {
		pk := make([]string, len(rel.PartCols))
		for i, c := range rel.PartCols {
			pk[i] = flat.Fields[c].Name
		}
		ds.PrimaryKey = pk
	}

	acct := ctx.Accounting()
	partStats := make([]*stats.DatasetStats, len(rel.Parts))
	errs := make([]error, len(rel.Parts))
	var wg sync.WaitGroup
	for p := range rel.Parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Contain panics on the stats goroutines: a panicking sketch
			// observer becomes this partition's error instead of killing the
			// process with the WaitGroup never satisfied.
			defer func() {
				if v := recover(); v != nil {
					errs[p] = faults.FromPanic("sink", fmt.Sprintf("materialize partition %d", p), v)
				}
			}()
			st := stats.NewDatasetStats(name)
			st.RecordCount = int64(len(rel.Parts[p]))
			st.ByteSize = rel.PartBytes(p)
			var observed int64
			if statsFields != nil {
				for _, t := range rel.Parts[p] {
					for i, f := range flat.Fields {
						if statsFields[f.Name] {
							st.Field(f.Name).Observe(t[i])
							observed++
						}
					}
				}
			}
			acct.MatWriteRows.Add(st.RecordCount)
			acct.MatWriteBytes.Add(st.ByteSize)
			acct.StatsObserved.Add(observed)
			partStats[p] = st
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	pb := make([]int64, len(rel.Parts))
	for p := range rel.Parts {
		ds.Parts[p] = rel.Parts[p]
		pb[p] = rel.PartBytes(p)
	}
	ds.SeedSizes(pb, rel.ByteSize())
	// No grant reservation here: materialized intermediates model on-disk
	// temps (their write and read-back I/O is metered as MatWriteBytes /
	// MatReadBytes above and in Scan), not resident query memory — holding
	// them on the grant would double-count the next stage's build side,
	// whose tuples share backing with this relation.
	merged := stats.NewDatasetStats(name)
	for _, st := range partStats {
		merged.Merge(st)
	}
	return ds, merged, nil
}
