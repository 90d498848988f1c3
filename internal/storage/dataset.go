// Package storage implements the partitioned dataset layer: hash-partitioned
// base datasets with ingestion-time statistics collection (standing in for
// AsterixDB's LSM ingestion stats), secondary indexes for indexed
// nested-loop joins, and the temp store holding materialized intermediate
// results between re-optimization points.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"dynopt/internal/stats"
	"dynopt/internal/types"
)

// Dataset is one hash-partitioned dataset. Partitions map 1:1 to cluster
// nodes. Schema fields carry empty qualifiers; scans requalify them with the
// query alias.
type Dataset struct {
	Name       string
	Schema     *types.Schema
	PrimaryKey []string
	Parts      [][]types.Tuple
	Indexes    map[string]*Index // secondary indexes by field name
	Temp       bool              // materialized intermediate (no indexes survive)

	// sizes caches encoded byte sizes: datasets are immutable once loaded,
	// so the sizes the scan and spill metering need are computed once per
	// dataset, not once per scan.
	sizes types.SizeCache

	// paged, when set, is the dataset's disk backing: Parts holds empty
	// slices (partition count preserved for every len(Parts) caller) and row
	// access routes through the page file. See paged.go.
	paged *PagedData
}

// RowCount returns the total number of rows across partitions.
func (d *Dataset) RowCount() int64 {
	if d.paged != nil {
		return d.paged.file.Rows()
	}
	var n int64
	for _, p := range d.Parts {
		n += int64(len(p))
	}
	return n
}

// ByteSize returns the total encoded size across partitions, computed once
// and cached. Callers must not mutate Parts after the first call.
func (d *Dataset) ByteSize() int64 { return d.sizes.Total(d.Parts) }

// PartBytes returns the encoded size of partition p, cached like ByteSize.
func (d *Dataset) PartBytes(p int) int64 { return d.sizes.Part(d.Parts, p) }

// SeedSizes installs encoded sizes the caller already computed (the engine's
// sink materializes a relation whose sizes are known), so the lazy pass in
// ByteSize/PartBytes never runs. Must be called before the dataset is shared
// across goroutines.
func (d *Dataset) SeedSizes(partBytes []int64, total int64) {
	d.sizes.Seed(partBytes, total)
}

// PartitionFields returns the fields the dataset is hash-partitioned on
// (its primary key, or nil for round-robin temp data).
func (d *Dataset) PartitionFields() []string { return d.PrimaryKey }

// ChunkReader streams one partition's rows in fixed-size windows — the
// storage face of the engine's chunk pipeline. The returned windows alias
// the stored rows (zero-copy); callers must treat them as read-only.
//
// The reader is also the window's columnar decoder: Col gathers a column of
// the current window into a typed vector (cached per window, buffers reused
// across windows), which is what the engine's vectorized predicate kernels
// and the columnar join-key prehash read instead of row-form values.
type ChunkReader struct {
	part []types.Tuple
	size int
	off  int
	cols *types.ColCache
}

// ChunkReader returns a reader over partition p yielding at most size rows
// per chunk. size < 1 yields the whole partition in one chunk.
func (d *Dataset) ChunkReader(p, size int) *ChunkReader {
	if size < 1 {
		size = len(d.Parts[p])
	}
	return &ChunkReader{part: d.Parts[p], size: size, cols: types.NewColCache(d.Schema)}
}

// Rebind points a reader that has finished its partition at partition p of
// the same dataset, keeping its window size and its column-vector buffers: a
// scan whose partitions are read one after another gathers into one set of
// vectors instead of allocating a set per partition.
func (d *Dataset) Rebind(r *ChunkReader, p int) {
	r.part, r.off = d.Parts[p], 0
}

// Next returns the next window of rows, or false at the end of the
// partition. Empty partitions return false immediately.
func (r *ChunkReader) Next() ([]types.Tuple, bool) {
	if r.off >= len(r.part) {
		return nil, false
	}
	end := r.off + r.size
	if end > len(r.part) {
		end = len(r.part)
	}
	w := r.part[r.off:end]
	r.off = end
	r.cols.SetWindow(w)
	return w, true
}

// Col implements types.ColSource over the current window: column i decoded
// to a typed vector, gathered on first request per window.
func (r *ChunkReader) Col(i int) *types.ColVec { return r.cols.Col(i) }

// HasIndex reports whether a secondary index exists on the field.
func (d *Dataset) HasIndex(field string) bool {
	_, ok := d.Indexes[field]
	return ok
}

// Build constructs a base dataset: rows are hash-partitioned on the primary
// key across nparts partitions (round-robin when pk is empty), and every
// field is fed through the statistics collectors during the load — the
// "upfront statistics gained during loading" of §7 that seed the first plan.
func Build(name string, schema *types.Schema, pk []string, rows []types.Tuple, nparts int) (*Dataset, *stats.DatasetStats, error) {
	return build(name, schema, pk, rows, nparts, true)
}

// build is Build with the statistics pass optional: BuildParallel skips the
// serial sketch collection here and runs its own partition-parallel one
// (the size cache is always seeded either way). With collectStats false the
// returned stats carry only the row/byte totals.
func build(name string, schema *types.Schema, pk []string, rows []types.Tuple, nparts int, collectStats bool) (*Dataset, *stats.DatasetStats, error) {
	if nparts < 1 {
		nparts = 1
	}
	ds := &Dataset{
		Name:       name,
		Schema:     schema,
		PrimaryKey: pk,
		Parts:      make([][]types.Tuple, nparts),
		Indexes:    map[string]*Index{},
	}
	var pkIdx []int
	for _, f := range pk {
		i, ok := schema.Index(f)
		if !ok {
			return nil, nil, fmt.Errorf("storage: primary key field %q not in schema %s", f, schema)
		}
		pkIdx = append(pkIdx, i)
	}
	for i, row := range rows {
		if len(row) != schema.Len() {
			return nil, nil, fmt.Errorf("storage: row %d has %d values, schema has %d", i, len(row), schema.Len())
		}
	}
	// Bulk-prehash the primary key once per row, count occupancy, and
	// presize the partitions — the same prehash-then-fill shape as the
	// engine's exchange, so bulk loads stay allocation-lean too.
	var hashes []uint64
	if len(pkIdx) > 0 {
		hashes = types.HashKeysInto(rows, pkIdx, nil)
	}
	partOf := func(i int) int {
		if hashes != nil {
			return int(hashes[i] % uint64(nparts))
		}
		return i % nparts
	}
	counts := make([]int, nparts)
	for i := range rows {
		counts[partOf(i)]++
	}
	for p := range ds.Parts {
		ds.Parts[p] = make([]types.Tuple, 0, counts[p])
	}
	// One EncodedSize walk per row covers both the statistics byte totals and
	// the dataset's partition size cache — ByteSize/PartBytes never re-walk
	// the tuples afterwards.
	st := stats.NewDatasetStats(name)
	partBytes := make([]int64, nparts)
	var totalBytes int64
	//dynopt:hotpath
	for i, row := range rows {
		p := partOf(i)
		ds.Parts[p] = append(ds.Parts[p], row)
		sz := int64(row.EncodedSize())
		partBytes[p] += sz
		totalBytes += sz
		if collectStats {
			st.ObserveTupleSized(schema, row, nil, sz)
		}
	}
	if !collectStats {
		st.RecordCount = int64(len(rows))
		st.ByteSize = totalBytes
	}
	ds.SeedSizes(partBytes, totalBytes)
	return ds, st, nil
}

// BuildParallel is Build with partition-parallel statistics collection: each
// partition runs its own collectors, merged at the end. Semantically
// identical to Build; used by large ingests and exercised by tests to verify
// sketch mergeability.
func BuildParallel(name string, schema *types.Schema, pk []string, rows []types.Tuple, nparts int) (*Dataset, *stats.DatasetStats, error) {
	// Skip the serial sketch pass: the per-partition goroutines below are
	// the only ones feeding the collectors, so no row is observed twice.
	ds, _, err := build(name, schema, pk, rows, nparts, false)
	if err != nil {
		return nil, nil, err
	}
	partStats := make([]*stats.DatasetStats, len(ds.Parts))
	var wg sync.WaitGroup
	for p := range ds.Parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			st := stats.NewDatasetStats(name)
			for _, row := range ds.Parts[p] {
				st.ObserveTupleSized(schema, row, nil, 0)
			}
			// Byte totals come from the size cache Build already seeded; the
			// per-partition observation loop only feeds the sketches.
			st.ByteSize = ds.PartBytes(p)
			partStats[p] = st
		}(p)
	}
	wg.Wait()
	merged := stats.NewDatasetStats(name)
	for _, st := range partStats {
		merged.Merge(st)
	}
	return ds, merged, nil
}

// Index is a secondary index: per partition, row offsets sorted by key, with
// binary-search lookup. It indexes the partition-local rows (each node
// indexes its own data, as in AsterixDB's local secondary indexes).
type Index struct {
	Field string
	parts []indexPart
}

type indexPart struct {
	keys []types.Value // sorted
	rows []int         // parallel to keys: row offset within the partition

	// ikeys mirrors keys as raw int64s when every key is KindInt (the
	// common case for FK indexes): binary search then compares 8-byte
	// machine ints on a dense array instead of calling Value.Compare across
	// 32-byte elements. Compare orders ints numerically, so the orders
	// agree exactly.
	ikeys []int64
}

// BuildIndex creates (and attaches) a secondary index on the field. Paged
// datasets materialize each partition transiently from its pages — the index
// itself stores only (key, row offset) pairs, so nothing row-shaped is
// retained after the build.
func BuildIndex(ds *Dataset, field string) (*Index, error) {
	fi, ok := ds.Schema.Index(field)
	if !ok {
		return nil, fmt.Errorf("storage: index field %q not in schema of %s", field, ds.Name)
	}
	idx := &Index{Field: field, parts: make([]indexPart, len(ds.Parts))}
	for p := range ds.Parts {
		part := ds.Parts[p]
		if ds.paged != nil {
			var err error
			part, err = ds.paged.MaterializePart(p)
			if err != nil {
				return nil, err
			}
		}
		ip := indexPart{
			keys: make([]types.Value, len(part)),
			rows: make([]int, len(part)),
		}
		order := make([]int, len(part))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return part[order[a]][fi].Compare(part[order[b]][fi]) < 0
		})
		allInt := true
		for i, r := range order {
			ip.keys[i] = part[r][fi]
			ip.rows[i] = r
			if ip.keys[i].K != types.KindInt {
				allInt = false
			}
		}
		if allInt {
			ip.ikeys = make([]int64, len(ip.keys))
			for i, k := range ip.keys {
				ip.ikeys[i] = k.I()
			}
		}
		idx.parts[p] = ip
	}
	ds.Indexes[field] = idx
	return idx, nil
}

// Lookup returns the half-open range [lo, hi) of positions in partition p's
// sorted key order whose indexed field equals key; Row maps a position back
// to the row offset within the partition. Returning a range instead of a
// materialized []int keeps index probes allocation-free — IndexNLJoin issues
// one Lookup per outer row per partition.
func (ix *Index) Lookup(p int, key types.Value) (lo, hi int) {
	if p < 0 || p >= len(ix.parts) {
		return 0, 0
	}
	ip := &ix.parts[p]
	if ip.ikeys != nil && key.K == types.KindInt {
		k := key.I()
		lo = sort.Search(len(ip.ikeys), func(i int) bool { return ip.ikeys[i] >= k })
		hi = lo
		for hi < len(ip.ikeys) && ip.ikeys[hi] == k {
			hi++
		}
		return lo, hi
	}
	lo = sort.Search(len(ip.keys), func(i int) bool { return ip.keys[i].Compare(key) >= 0 })
	hi = lo + sort.Search(len(ip.keys)-lo, func(i int) bool { return ip.keys[lo+i].Compare(key) > 0 })
	return lo, hi
}

// Row returns the partition-local row offset stored at index position i of
// partition p (i must come from a Lookup range on the same partition).
func (ix *Index) Row(p, i int) int { return ix.parts[p].rows[i] }

// Rows returns partition p's full position→row-offset mapping in sorted key
// order. Callers must treat it as read-only; tight fetch loops index it
// directly instead of calling Row per position.
func (ix *Index) Rows(p int) []int { return ix.parts[p].rows }

// Partitions returns the number of partitions the index covers.
func (ix *Index) Partitions() int { return len(ix.parts) }
