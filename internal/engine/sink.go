package engine

import (
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
// and appended to the temp dataset's partitions while the chunk that carries
// them is still the pipeline's current one — the relation is never re-walked.
type StreamSink struct {
	ctx       *Context
	name      string
	relSchema *types.Schema
	flat      *types.Schema
	partCols  []int

	statIdx   []int // field offsets under statistics collection, ascending
	blocks    partBlocks
	partBytes []int64
	partStats []*stats.DatasetStats
	fields    [][]*stats.FieldStats // [part][statIdx order] collector cache
	observed  []int64
}

// NewStreamSink prepares a sink writing nparts partitions to temp dataset
// name. statsFields names flattened columns to collect counts and distinct
// sketches on — no histogram: the Planner reads an intermediate only
// through its sizes and distinct counts; nil collects none (row and byte
// counts are always recorded — the Planner needs sizes). partCols, when set, become the temp's recorded partitioning
// so a later join on the same keys skips its exchange.
func NewStreamSink(ctx *Context, relSchema *types.Schema, nparts int, name string, statsFields map[string]bool, partCols []int) *StreamSink {
	s := &StreamSink{
		ctx:       ctx,
		name:      name,
		relSchema: relSchema,
		flat:      flattenSchema(relSchema),
		partCols:  partCols,
		blocks:    make(partBlocks, nparts),
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

// Emit implements Sink: the chunk is sized in one walk of its rows, then
// observed field-major — each collected field's collector takes the chunk's
// column in one call, seeing the values in row order — and its headers are
// appended to the partition's block. Called concurrently for different
// partitions, in order within one.
func (s *StreamSink) Emit(p int, rows []types.Tuple) error {
	var bytes int64
	//dynopt:hotpath
	for _, t := range rows {
		bytes += int64(t.EncodedSize()) //dynopt:size-ok sink seeds the materialized relation's size cache as rows arrive
	}
	fs := s.fields[p]
	//dynopt:hotpath
	for k, i := range s.statIdx {
		fs[k].ObserveCol(rows, i)
	}
	s.partBytes[p] += bytes
	s.observed[p] += int64(len(rows)) * int64(len(s.statIdx))
	s.blocks.add(p, rows)
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
	parts := s.blocks.join()
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

// Materialize writes a finished relation to the temp store (metering the
// write I/O of the blocking re-optimization point) and collects online
// statistics on the requested fields — the join keys of the remaining query,
// so no unnecessary sketches are built (§5.3). It is the Sink for a relation
// that already landed: each partition goes into a StreamSink in one Emit.
// Stage pipelines never call it — their output reaches the StreamSink chunk
// by chunk.
func Materialize(ctx *Context, rel *Relation, name string, statsFields map[string]bool) (*storage.Dataset, *stats.DatasetStats, error) {
	sink := NewStreamSink(ctx, rel.Schema, len(rel.Parts), name, statsFields, rel.PartCols)
	err := forEachPart(len(rel.Parts), func(p int) error {
		return sink.Emit(p, rel.Parts[p])
	})
	if err != nil {
		return nil, nil, err
	}
	return sink.Finish()
}
