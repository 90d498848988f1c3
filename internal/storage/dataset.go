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
	"sync/atomic"

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

	// layout, one entry per partition, is what Build knows about how a
	// resident base dataset's rows lie in memory. Nil for temps (their rows
	// are the producing operator's arena tuples) and for paged datasets.
	layout []partLayout
}

// partLayout describes one resident base partition. Its rows are carved, in
// partition order, out of one value slab Build allocated (row i+1 starts
// where row i ends), so a partition scan is a sequential walk and the
// collector marks one object per partition instead of one per row. Beside
// the slab the layout carries two things derived from the rows, immutable
// once published because the rows are.
type partLayout struct {
	// widths[c] is the encoded size every value of column c shares, 0 when
	// they differ — the width profile a scan folds through its projection
	// (RowBytes) so fixed-width rows are never read just to be weighed.
	widths []int32

	// kept[c] is column c of the whole partition as a typed vector, gathered
	// the first time a reader asks for it (under mu) and then shared
	// read-only by every reader until the dataset is dropped. Only int and
	// float columns are kept: their vectors are pointer-free, so the mirror
	// costs the collector nothing, where a kept string column would be a
	// second copy of every string header for it to walk.
	kept []atomic.Pointer[types.ColVec]
	mu   sync.Mutex
}

// keptKind reports whether columns of schema kind k are kept as whole-
// partition vectors.
func keptKind(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }

// col returns column c of the whole partition, gathering it on first use. A
// column that gathers Mixed is kept as the bare marker: readers fall back to
// the per-window gather, which reports Mixed only for the windows that are.
//
//dynopt:hotpath
func (l *partLayout) col(part []types.Tuple, c int, kind types.Kind) *types.ColVec {
	if v := l.kept[c].Load(); v != nil {
		return v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v := l.kept[c].Load(); v != nil {
		return v
	}
	v := new(types.ColVec) //dynopt:alloc-ok one vector per partition column for the life of the dataset
	v.Gather(part, c, kind)
	if v.Mixed {
		*v = types.ColVec{Kind: kind, Mixed: true}
	}
	l.kept[c].Store(v)
	return v
}

// RowBytes returns the encoded size every row of resident base partition p
// shares over the listed columns (nil: the whole row), or 0 when its rows
// differ or the dataset carries no width profile (temps, paged datasets).
func (d *Dataset) RowBytes(p int, cols []int) int64 {
	if d.layout == nil {
		return 0
	}
	widths := d.layout[p].widths
	var n int64
	if cols == nil {
		for _, w := range widths {
			if w == 0 {
				return 0
			}
			n += int64(w)
		}
		return n
	}
	for _, c := range cols {
		if widths[c] == 0 {
			return 0
		}
		n += int64(widths[c])
	}
	return n
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
// The reader is also the window's columnar decoder: Col serves a column of
// the current window as a typed vector, which is what the engine's
// vectorized predicate kernels and the columnar join-key prehash read
// instead of row-form values. Where the vector comes from depends on the
// dataset's Temp flag, its residency and the column's schema kind, nothing
// a caller sets: an int or float column of a resident base partition is a
// zero-copy window of the partition's kept vector (partLayout.kept); every
// other column — strings, and all columns of a temp, which is read once or
// twice and dies with its query — is gathered from the window's rows, at
// most once per window, into buffers reused across windows.
type ChunkReader struct {
	schema *types.Schema
	part   []types.Tuple
	size   int // rows per window; 0 = the whole partition in one window
	lo     int // start of the current window
	off    int // end of the current window: where the next one starts
	cols   *types.ColCache

	// lay is the partition's layout when its numeric columns are served from
	// kept vectors, nil otherwise; views[i] is then the vector Col(i) hands
	// out, re-pointed at the current window on every call.
	lay   *partLayout
	views []types.ColVec
}

// ChunkReader returns a reader over partition p yielding at most size rows
// per chunk. size < 1 yields the whole partition in one chunk.
func (d *Dataset) ChunkReader(p, size int) *ChunkReader {
	r := &ChunkReader{schema: d.Schema, size: max(size, 0), cols: types.NewColCache(d.Schema)}
	d.Rebind(r, p)
	return r
}

// Rebind points a reader that has finished its partition at partition p of
// the same dataset, keeping its window size and its column-vector buffers: a
// scan whose partitions are read one after another gathers into one set of
// vectors instead of allocating a set per partition.
func (d *Dataset) Rebind(r *ChunkReader, p int) {
	r.part, r.lo, r.off, r.lay = d.Parts[p], 0, 0, nil
	if d.layout != nil && !d.Temp {
		r.lay = &d.layout[p]
		if r.views == nil {
			r.views = make([]types.ColVec, d.Schema.Len())
		}
	}
}

// Next returns the next window of rows, or false at the end of the
// partition. Empty partitions return false immediately.
func (r *ChunkReader) Next() ([]types.Tuple, bool) {
	if r.off >= len(r.part) {
		return nil, false
	}
	end := len(r.part)
	if r.size > 0 && r.off+r.size < end {
		end = r.off + r.size
	}
	w := r.part[r.off:end]
	r.lo, r.off = r.off, end
	r.cols.SetWindow(w)
	return w, true
}

// Col implements types.ColSource over the current window: column i as a
// typed vector, valid until the window advances.
//
//dynopt:hotpath
func (r *ChunkReader) Col(i int) *types.ColVec {
	if kind := r.schema.Fields[i].Kind; r.lay != nil && keptKind(kind) {
		if full := r.lay.col(r.part, i, kind); !full.Mixed {
			v := &r.views[i]
			*v = full.Window(r.lo, r.off)
			return v
		}
	}
	return r.cols.Col(i)
}

// HasIndex reports whether a secondary index exists on the field.
func (d *Dataset) HasIndex(field string) bool {
	_, ok := d.Indexes[field]
	return ok
}

// Build constructs a base dataset: rows are hash-partitioned on the primary
// key across nparts partitions (round-robin when pk is empty), and every
// field is fed through the statistics collectors during the load — the
// "upfront statistics gained during loading" of §7 that seed the first plan.
//
// The dataset owns its rows: each partition's rows are copied, in placement
// order, into one value slab (see partLayout), so the caller may reuse or
// mutate its slice afterwards, and a retained stored row keeps its whole
// partition's slab reachable.
func Build(name string, schema *types.Schema, pk []string, rows []types.Tuple, nparts int) (*Dataset, *stats.DatasetStats, error) {
	if nparts < 1 {
		nparts = 1
	}
	ds := &Dataset{
		Name:       name,
		Schema:     schema,
		PrimaryKey: pk,
		Parts:      make([][]types.Tuple, nparts),
		Indexes:    map[string]*Index{},
		layout:     make([]partLayout, nparts),
	}
	var pkIdx []int
	for _, f := range pk {
		i, ok := schema.Index(f)
		if !ok {
			return nil, nil, fmt.Errorf("storage: primary key field %q not in schema %s", f, schema)
		}
		pkIdx = append(pkIdx, i)
	}
	width := schema.Len()
	for i, row := range rows {
		if len(row) != width {
			return nil, nil, fmt.Errorf("storage: row %d has %d values, schema has %d", i, len(row), width)
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
	slabs := make([][]types.Value, nparts)
	for p := range ds.Parts {
		ds.Parts[p] = make([]types.Tuple, 0, counts[p])
		slabs[p] = make([]types.Value, 0, counts[p]*width)
		ds.layout[p].widths = make([]int32, width)
		ds.layout[p].kept = make([]atomic.Pointer[types.ColVec], width)
	}
	// One walk per row copies it into its partition's slab and sizes it value
	// by value — feeding the statistics byte totals, the partition size cache
	// (ByteSize/PartBytes never re-walk the tuples) and the width profile.
	partBytes := make([]int64, nparts)
	var totalBytes int64
	//dynopt:hotpath
	for i, row := range rows {
		p := partOf(i)
		lo := len(slabs[p])
		slabs[p] = append(slabs[p], row...)
		// Capacity-clamped like an arena tuple: an append to a stored row
		// reallocates instead of overwriting its neighbour.
		stored := types.Tuple(slabs[p][lo : lo+width : lo+width])
		widths, first := ds.layout[p].widths, len(ds.Parts[p]) == 0
		ds.Parts[p] = append(ds.Parts[p], stored)
		var sz int64
		for c := range stored {
			w := int32(stored[c].EncodedSize())
			sz += int64(w)
			if first {
				widths[c] = w
			} else if widths[c] != w {
				widths[c] = 0
			}
		}
		partBytes[p] += sz
		totalBytes += sz
	}
	ds.SeedSizes(partBytes, totalBytes)
	// Statistics are observed a column at a time over the input rows, in input
	// order, so the sketches do not depend on where a row was placed.
	st := stats.NewDatasetStats(name)
	st.RecordCount, st.ByteSize = int64(len(rows)), totalBytes
	st.ObserveRows(schema, rows, nil)
	return ds, st, nil
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
