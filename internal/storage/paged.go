package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dynopt/internal/faults"
	"dynopt/internal/stats"
	"dynopt/internal/types"
)

// The paged dataset backend: a Dataset whose rows live in a sealed page file
// instead of resident partition slices. The dataset keeps its partition
// count (Parts holds empty slices so every len(ds.Parts) caller sees the
// cluster width) and its seeded size cache (partition encoded bytes come
// from the page directory, computed by the same EncodedSize walk at
// conversion time — scan metering is byte-identical to resident mode);
// everything row-shaped routes through PagedData: page-granular scans with
// zone-map pruning and projection pushdown in the engine, page-ordered batched
// row fetches for indexed nested-loop probes, and transient materialization for
// index builds and pilot sampling.

// PagedData is a dataset's disk backing: the open page file, the shared
// byte-budgeted page cache, and the per-partition page row offsets.
type PagedData struct {
	file  *PageFile
	cache *PageCache
	// cum[p][i] is the partition-local row offset where page i starts;
	// cum[p][len] is the partition row count — Fetch's page lookup table.
	cum [][]int64
}

// PageScanStats counts page-level scan work — reads, zone-map prunes, cache
// traffic — observed by one query (hung on the engine context) or one
// benchmark run. Deliberately separate from cluster.Accounting: the metered
// cost counters stay byte-identical between resident and paged runs, and
// these observations feed the optimizer's access-path feedback instead.
type PageScanStats struct {
	PagesRead   atomic.Int64
	PagesPruned atomic.Int64
	PagesTotal  atomic.Int64
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
}

// PruneRatio returns the fraction of directory pages zone maps pruned.
func (s *PageScanStats) PruneRatio() float64 {
	t := s.PagesTotal.Load()
	if t == 0 {
		return 0
	}
	return float64(s.PagesPruned.Load()) / float64(t)
}

// AttachPages turns ds into a paged dataset over an open page file: Parts
// becomes empty slices (partition count preserved), sizes are seeded from
// the directory, and row access routes through the returned backing.
func AttachPages(ds *Dataset, file *PageFile, cache *PageCache) *PagedData {
	n := file.Partitions()
	pg := &PagedData{file: file, cache: cache, cum: make([][]int64, n)}
	partBytes := make([]int64, n)
	var total int64
	for p := 0; p < n; p++ {
		part := file.Part(p)
		cum := make([]int64, len(part.Pages)+1)
		var rows int64
		for i := range part.Pages {
			cum[i] = rows
			rows += int64(part.Pages[i].Rows)
		}
		cum[len(part.Pages)] = rows
		pg.cum[p] = cum
		partBytes[p] = part.EncBytes
		total += part.EncBytes
	}
	ds.Parts = make([][]types.Tuple, n)
	ds.layout = nil
	ds.paged = pg
	ds.sizes = types.SizeCache{}
	ds.SeedSizes(partBytes, total)
	return pg
}

// Paged returns the dataset's disk backing, nil for resident datasets.
func (d *Dataset) Paged() *PagedData { return d.paged }

// IsPaged reports whether the dataset's rows live in a page file.
func (d *Dataset) IsPaged() bool { return d.paged != nil }

// PartRows returns partition p's row count — resident slice length or the
// page directory's sealed count. Scan metering routes through this so paged
// and resident runs charge identical figures.
func (d *Dataset) PartRows(p int) int64 {
	if d.paged != nil {
		return d.paged.file.Part(p).Rows
	}
	return int64(len(d.Parts[p]))
}

// File returns the backing page file.
func (pg *PagedData) File() *PageFile { return pg.file }

// Cache returns the shared page cache (nil when uncached).
func (pg *PagedData) Cache() *PageCache { return pg.cache }

// Pages returns partition p's page count.
func (pg *PagedData) Pages(p int) int { return len(pg.file.Part(p).Pages) }

// TotalPages returns the file's page count across partitions.
func (pg *PagedData) TotalPages() int {
	n := 0
	for p := 0; p < pg.file.Partitions(); p++ {
		n += len(pg.file.Part(p).Pages)
	}
	return n
}

// Page returns page i of partition p's directory entry — offsets, row
// counts, and the per-column zone maps pruning reads before any decode.
func (pg *PagedData) Page(p, i int) *PageInfo { return &pg.file.Part(p).Pages[i] }

// ReadPage returns page (p, i)'s verified payload through the cache: a hit
// returns the shared cached buffer (read-only), a miss reads and CRC-checks
// the frame and offers the fresh buffer to the cache. st, when non-nil,
// observes the read and cache traffic.
func (pg *PagedData) ReadPage(p, i int, st *PageScanStats) ([]byte, error) {
	if st != nil {
		st.PagesRead.Add(1)
	}
	if pg.cache != nil {
		if buf := pg.cache.Get(pg.file, p, i); buf != nil {
			if st != nil {
				st.CacheHits.Add(1)
			}
			return buf, nil
		}
		if st != nil {
			st.CacheMisses.Add(1)
		}
	}
	buf, err := pg.file.ReadPage(nil, p, i)
	if err != nil {
		return nil, err
	}
	if pg.cache != nil {
		pg.cache.Put(pg.file, p, i, buf)
	}
	return buf, nil
}

// MaterializePart decodes partition p's rows in full — the transient path
// index builds and pilot sampling use; scans never do (they stream pages).
func (pg *PagedData) MaterializePart(p int) ([]types.Tuple, error) {
	rows := make([]types.Tuple, 0, pg.file.Part(p).Rows)
	var pd types.PageData
	for i := 0; i < pg.Pages(p); i++ {
		buf, err := pg.ReadPage(p, i, nil)
		if err != nil {
			return nil, err
		}
		if err := pd.DecodePage(buf, pg.file.schema, nil); err != nil {
			return nil, err
		}
		//dynopt:cold-ok transient full materialization for index builds, off the scan path
		for r := 0; r < pd.NRows; r++ {
			rows = append(rows, pd.Tuple(r))
		}
	}
	return rows, nil
}

// EachRow streams partition p's rows in order, page by page, stopping early
// when fn returns false. Prefix consumers (pilot sampling's LIMIT-k scans)
// use this so only the pages actually touched are read and decoded.
func (pg *PagedData) EachRow(p int, fn func(t types.Tuple) bool) error {
	var pd types.PageData
	for i := 0; i < pg.Pages(p); i++ {
		buf, err := pg.ReadPage(p, i, nil)
		if err != nil {
			return err
		}
		if err := pd.DecodePage(buf, pg.file.schema, nil); err != nil {
			return err
		}
		//dynopt:cold-ok prefix sampling path, bounded by the consumer's early stop
		for r := 0; r < pd.NRows; r++ {
			if !fn(pd.Tuple(r)) {
				return nil
			}
		}
	}
	return nil
}

// PartView is the batched row fetcher over one partition — the paged face of
// `part[off]` for indexed nested-loop probes. A view is single-goroutine (one
// per partition worker) and owns the batch scratch, so steady-state fetches
// allocate only the fetched tuples themselves.
type PartView struct {
	pg    *PagedData
	p     int
	st    *PageScanStats
	arena types.Arena
	order []int32       // request positions, sorted by offset
	sel   []int32       // one page's distinct row indexes, ascending
	rows  []types.Tuple // one page's materialized rows, aligned with sel
}

// Part returns a fresh row-fetch view over partition p. st, when non-nil,
// observes the page reads and cache traffic of every fetch.
func (pg *PagedData) Part(p int, st *PageScanStats) *PartView {
	return &PartView{pg: pg, p: p, st: st}
}

// Fetch appends the partition-local rows at offs to dst, in request order.
// The batch is served in page order: each page holding a requested row is
// read once through the page cache and only the requested rows are built
// (a repeated offset is built once and shared), so a batch costs at most
// min(len(offs), partition pages) page reads however the offsets scatter.
// The tuples are arena-backed and stay valid after later fetches.
func (v *PartView) Fetch(offs []int, dst []types.Tuple) ([]types.Tuple, error) {
	cum := v.pg.cum[v.p]
	nrows := cum[len(cum)-1]
	v.order = v.order[:0]
	for i, off := range offs {
		if off < 0 || int64(off) >= nrows {
			return dst, fmt.Errorf("storage: row offset %d out of range for paged partition %d", off, v.p)
		}
		v.order = append(v.order, int32(i))
	}
	slices.SortFunc(v.order, func(a, b int32) int { return cmp.Compare(offs[a], offs[b]) })
	base := len(dst)
	dst = slices.Grow(dst, len(offs))[:base+len(offs)]
	out := dst[base:]
	schema := v.pg.file.schema
	pi := 0
	for k := 0; k < len(v.order); {
		// The page holding the next offset, and the run of the sorted batch
		// that lands on it: sel collects the run's distinct page-local rows.
		off := int64(offs[v.order[k]])
		pi += sort.Search(len(cum)-1-pi, func(i int) bool { return cum[pi+i+1] > off })
		first, limit := cum[pi], cum[pi+1]
		end := k
		v.sel = v.sel[:0]
		for ; end < len(v.order) && int64(offs[v.order[end]]) < limit; end++ {
			if r := int32(int64(offs[v.order[end]]) - first); len(v.sel) == 0 || v.sel[len(v.sel)-1] != r {
				v.sel = append(v.sel, r)
			}
		}
		buf, err := v.pg.ReadPage(v.p, pi, v.st)
		if err != nil {
			return dst[:base], err
		}
		v.rows, err = types.MaterializePageRows(buf, schema, nil, v.sel, &v.arena, v.rows[:0])
		if err != nil {
			return dst[:base], err
		}
		// Hand each request of the run its row; u trails the run through sel.
		for u := 0; k < end; k++ {
			if int32(int64(offs[v.order[k]])-first) != v.sel[u] {
				u++
			}
			out[v.order[k]] = v.rows[u]
		}
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Conversion and open: the load-once path from resident rows to page files
// plus sidecars, and the cold-open path back.

var (
	metaMagic = [8]byte{'D', 'Y', 'N', 'M', 'T', 'A', '1', 0}
	idxMagic  = [8]byte{'D', 'Y', 'N', 'I', 'D', 'X', '1', 0}
)

// pagePath/metaPath/indexPath name a paged dataset's files inside its data
// directory.
func pagePath(dir, name string) string { return filepath.Join(dir, name+".dynpg") }
func metaPath(dir, name string) string { return filepath.Join(dir, name+".meta") }
func indexPath(dir, name, field string) string {
	return filepath.Join(dir, name+"."+field+".idx")
}

// writeFramed writes a single len|crc framed payload as a whole file.
func writeFramed(path string, payload []byte) error {
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], types.CRC32C(payload))
	frame = append(frame, payload...)
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		return classifySpill("sidecar write", err)
	}
	return nil
}

// readFramed reads back a writeFramed file, verifying frame and checksum.
func readFramed(path string) ([]byte, error) {
	frame, err := os.ReadFile(path)
	if err != nil {
		return nil, classifySpill("sidecar read", err)
	}
	if len(frame) < 8 {
		return nil, corruptPagef("sidecar %s shorter than its frame header", path)
	}
	plen := binary.LittleEndian.Uint32(frame[0:4])
	if int(plen) != len(frame)-8 {
		return nil, corruptPagef("sidecar %s frame length %d disagrees with file size", path, plen)
	}
	payload := frame[8:]
	if got, want := types.CRC32C(payload), binary.LittleEndian.Uint32(frame[4:8]); got != want {
		return nil, corruptPagef("sidecar %s checksum mismatch (stored %08x, computed %08x)", path, want, got)
	}
	return payload, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readString decodes a uvarint-length-prefixed string.
func readString(src []byte, off int) (string, int, error) {
	n, m := binary.Uvarint(src[off:])
	if m <= 0 || n > uint64(len(src)-off-m) {
		return "", 0, corruptPagef("sidecar string length out of range")
	}
	off += m
	return string(src[off : off+int(n)]), off + int(n), nil
}

// WritePaged converts a resident dataset to its disk-native form under dir:
// the page file (rowsPerPage rows per page; <1 selects DefaultPageRows), the
// metadata sidecar (schema, primary key, and the ingestion statistics
// serialized so a later open registers byte-identical planner stats), and
// one index sidecar per secondary index.
func WritePaged(dir string, ds *Dataset, st *stats.DatasetStats, rowsPerPage int) error {
	if ds.IsPaged() {
		return fmt.Errorf("storage: dataset %s is already paged", ds.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return classifySpill("data dir create", err)
	}
	w, err := NewPageWriter(pagePath(dir, ds.Name), ds.Schema, rowsPerPage)
	if err != nil {
		return err
	}
	for p := range ds.Parts {
		if err := w.StartPartition(); err != nil {
			return err
		}
		for _, t := range ds.Parts[p] {
			if err := w.Append(t); err != nil {
				return err
			}
		}
	}
	if err := w.Finish(); err != nil {
		return err
	}

	meta := append([]byte(nil), metaMagic[:]...)
	meta = binary.AppendUvarint(meta, uint64(ds.Schema.Len()))
	for _, f := range ds.Schema.Fields {
		meta = appendString(meta, f.Qualifier)
		meta = appendString(meta, f.Name)
		meta = append(meta, byte(f.Kind))
	}
	meta = binary.AppendUvarint(meta, uint64(len(ds.PrimaryKey)))
	for _, k := range ds.PrimaryKey {
		meta = appendString(meta, k)
	}
	if st != nil {
		meta = append(meta, 1)
		meta = st.Encode(meta)
	} else {
		meta = append(meta, 0)
	}
	if err := writeFramed(metaPath(dir, ds.Name), meta); err != nil {
		return err
	}
	for field, idx := range ds.Indexes {
		if err := writeIndexFile(indexPath(dir, ds.Name, field), idx); err != nil {
			return err
		}
	}
	return nil
}

// OpenPaged opens a converted dataset from dir: metadata and statistics from
// the sidecar, rows left at rest in the page file (attached through cache),
// and every persisted secondary index loaded. The returned stats are the
// ingestion-time statistics the conversion serialized.
func OpenPaged(dir, name string, cache *PageCache, reg *faults.Registry) (*Dataset, *stats.DatasetStats, error) {
	meta, err := readFramed(metaPath(dir, name))
	if err != nil {
		return nil, nil, err
	}
	if len(meta) < 8 || [8]byte(meta[:8]) != metaMagic {
		return nil, nil, corruptPagef("sidecar %s magic mismatch", metaPath(dir, name))
	}
	off := 8
	nf, m := binary.Uvarint(meta[off:])
	if m <= 0 || nf > 1<<16 {
		return nil, nil, corruptPagef("sidecar %s bad field count", metaPath(dir, name))
	}
	off += m
	schema := &types.Schema{Fields: make([]types.Field, nf)}
	for i := range schema.Fields {
		q, n, err := readString(meta, off)
		if err != nil {
			return nil, nil, err
		}
		fn, n2, err := readString(meta, n)
		if err != nil {
			return nil, nil, err
		}
		off = n2
		if off >= len(meta) {
			return nil, nil, corruptPagef("sidecar %s truncated field kind", metaPath(dir, name))
		}
		schema.Fields[i] = types.Field{Qualifier: q, Name: fn, Kind: types.Kind(meta[off])}
		off++
	}
	npk, m := binary.Uvarint(meta[off:])
	if m <= 0 || npk > nf {
		return nil, nil, corruptPagef("sidecar %s bad primary key arity", metaPath(dir, name))
	}
	off += m
	pk := make([]string, npk)
	for i := range pk {
		var err error
		pk[i], off, err = readString(meta, off)
		if err != nil {
			return nil, nil, err
		}
	}
	if off >= len(meta) {
		return nil, nil, corruptPagef("sidecar %s truncated statistics flag", metaPath(dir, name))
	}
	hasStats := meta[off]
	off++
	var st *stats.DatasetStats
	if hasStats == 1 {
		var n int
		var err error
		st, n, err = stats.DecodeDatasetStats(meta[off:])
		if err != nil {
			return nil, nil, corruptPagef("sidecar %s statistics: %v", metaPath(dir, name), err)
		}
		off += n
	} else if hasStats != 0 {
		return nil, nil, corruptPagef("sidecar %s bad statistics flag %d", metaPath(dir, name), hasStats)
	}
	if off != len(meta) {
		return nil, nil, corruptPagef("sidecar %s carries %d trailing bytes", metaPath(dir, name), len(meta)-off)
	}

	file, err := OpenPageFile(pagePath(dir, name), schema, reg)
	if err != nil {
		return nil, nil, err
	}
	ds := &Dataset{Name: name, Schema: schema, PrimaryKey: pk, Indexes: map[string]*Index{}}
	AttachPages(ds, file, cache)

	// Load every persisted secondary index for this dataset.
	prefix := name + "."
	entries, err := os.ReadDir(dir)
	if err != nil {
		file.Close()
		return nil, nil, classifySpill("data dir read", err)
	}
	for _, e := range entries {
		fn := e.Name()
		if !strings.HasPrefix(fn, prefix) || !strings.HasSuffix(fn, ".idx") {
			continue
		}
		idx, err := readIndexFile(filepath.Join(dir, fn))
		if err != nil {
			file.Close()
			return nil, nil, err
		}
		if idx.Partitions() != file.Partitions() {
			file.Close()
			return nil, nil, corruptPagef("index %s covers %d partitions, page file holds %d", fn, idx.Partitions(), file.Partitions())
		}
		ds.Indexes[idx.Field] = idx
	}
	return ds, st, nil
}

// SaveIndex persists an index built on a paged dataset so later opens load
// it instead of rebuilding.
func SaveIndex(dir string, ds *Dataset, field string) error {
	idx, ok := ds.Indexes[field]
	if !ok {
		return fmt.Errorf("storage: dataset %s has no index on %q", ds.Name, field)
	}
	return writeIndexFile(indexPath(dir, ds.Name, field), idx)
}

// writeIndexFile serializes a sorted-key secondary index: per partition the
// sorted (key, row offset) pairs, framed and checksummed like every other
// sealed artifact.
func writeIndexFile(path string, idx *Index) error {
	payload := append([]byte(nil), idxMagic[:]...)
	payload = appendString(payload, idx.Field)
	payload = binary.AppendUvarint(payload, uint64(len(idx.parts)))
	for p := range idx.parts {
		ip := &idx.parts[p]
		payload = binary.AppendUvarint(payload, uint64(len(ip.keys)))
		for i, k := range ip.keys {
			payload = types.AppendValue(payload, k)
			payload = binary.AppendUvarint(payload, uint64(ip.rows[i]))
		}
	}
	return writeFramed(path, payload)
}

// readIndexFile loads a persisted index, rebuilding the int-key fast path.
func readIndexFile(path string) (*Index, error) {
	payload, err := readFramed(path)
	if err != nil {
		return nil, err
	}
	if len(payload) < 8 || [8]byte(payload[:8]) != idxMagic {
		return nil, corruptPagef("index %s magic mismatch", path)
	}
	off := 8
	field, off, err := readString(payload, off)
	if err != nil {
		return nil, err
	}
	np, m := binary.Uvarint(payload[off:])
	if m <= 0 || np > 1<<20 {
		return nil, corruptPagef("index %s bad partition count", path)
	}
	off += m
	idx := &Index{Field: field, parts: make([]indexPart, np)}
	for p := range idx.parts {
		nk, m := binary.Uvarint(payload[off:])
		if m <= 0 || nk > 1<<31 {
			return nil, corruptPagef("index %s bad key count", path)
		}
		off += m
		ip := indexPart{keys: make([]types.Value, nk), rows: make([]int, nk)}
		allInt := true
		var prev types.Value
		for i := range ip.keys {
			k, n, err := types.DecodeValue(payload[off:])
			if err != nil {
				return nil, err
			}
			off += n
			r, m := binary.Uvarint(payload[off:])
			if m <= 0 {
				return nil, corruptPagef("index %s truncated row offset", path)
			}
			off += m
			if i > 0 && prev.Compare(k) > 0 {
				return nil, corruptPagef("index %s keys out of sorted order at position %d", path, i)
			}
			prev = k
			ip.keys[i], ip.rows[i] = k, int(r)
			if k.K != types.KindInt {
				allInt = false
			}
		}
		if allInt && nk > 0 {
			ip.ikeys = make([]int64, nk)
			for i, k := range ip.keys {
				ip.ikeys[i] = k.I()
			}
		}
		idx.parts[p] = ip
	}
	if off != len(payload) {
		return nil, corruptPagef("index %s carries %d trailing bytes", path, len(payload)-off)
	}
	return idx, nil
}

// LookupRange returns the half-open position range [lo, hi) in partition p's
// sorted key order whose keys satisfy lo ≤ key ≤ hi under Value.Compare —
// the index's range seek. Either bound may be absent.
func (ix *Index) LookupRange(p int, lo, hi types.Value, hasLo, hasHi bool) (int, int) {
	if p < 0 || p >= len(ix.parts) {
		return 0, 0
	}
	ip := &ix.parts[p]
	a := 0
	b := len(ip.keys)
	if hasLo {
		a = sort.Search(len(ip.keys), func(i int) bool { return ip.keys[i].Compare(lo) >= 0 })
	}
	if hasHi {
		b = a + sort.Search(len(ip.keys)-a, func(i int) bool { return ip.keys[a+i].Compare(hi) > 0 })
	}
	return a, b
}
