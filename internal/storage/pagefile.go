package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"dynopt/internal/faults"
	"dynopt/internal/types"
)

// Disk-native page files: the persistent columnar format behind paged
// datasets. A page file holds every partition of one dataset as a sequence
// of column-chunked pages (types.EncodePage payloads) framed with the same
// len|crc block discipline as spill run files, followed by a checksummed
// directory — per-page offsets, row counts, encoded-byte totals, and
// per-column zone maps (min/max/null counts) — and a fixed sealed footer:
//
//	pagefile  = page* directory footer
//	page      = len u32le | crc u32le | payload          (types.EncodePage)
//	directory = len u32le | crc u32le | dirPayload
//	footer    = 0 u32le | crc u32le | magic [8]byte | dirOffset u64 |
//	            rows u64 | fileCRC u32
//
// The footer is framed as the zero-length block (exactly like a run file's),
// its crc covering the 28 payload bytes; fileCRC is a running CRC32-C over
// every page payload and the directory payload in file order, checked by the
// full Verify pass. Open verifies footer and directory only — pages verify
// lazily, each against its own CRC when first read — so a cold open touches
// O(directory) bytes, not the data. Every at-rest damage mode surfaces as a
// classified faults.ErrCorrupt, never a panic or silent wrong rows.

// pageMagic seals the footer of a finished page file.
var pageMagic = [8]byte{'D', 'Y', 'N', 'P', 'G', 'F', '1', 0}

// pageFooterLen is the footer frame: 8-byte block header + 28 payload bytes.
const pageFooterLen = 8 + 28

// maxPagePayload bounds one page frame's payload, like maxBlockBytes bounds
// a run block: a corrupt length prefix cannot OOM the server.
const maxPagePayload = 64 << 20

// DefaultPageRows is the page granularity conversions use when the caller
// does not choose one: small enough that zone maps prune selectively, large
// enough that per-page framing stays negligible.
const DefaultPageRows = 1024

// PageInfo is one page's directory entry.
type PageInfo struct {
	Offset   int64 // file offset of the page frame
	Len      int32 // payload length (frame is 8 bytes longer)
	Rows     int32
	EncBytes int64 // sum of EncodedSize over the page's rows (scan metering)
	Cols     []types.PageColStats
}

// PartDir is one partition's directory section.
type PartDir struct {
	Pages    []PageInfo
	Rows     int64
	EncBytes int64
}

// corruptPagef builds a page-file corruption error carrying faults.ErrCorrupt.
func corruptPagef(format string, args ...any) error {
	return fmt.Errorf("storage: "+format+": %w", append(args, faults.ErrCorrupt)...)
}

// PageWriter writes one dataset's page file: rows appended partition by
// partition, cut into pages of rowsPerPage, each encoded and framed as it
// fills. Finish writes the directory and seals the footer. Not safe for
// concurrent use.
type PageWriter struct {
	f           *os.File
	path        string
	schema      *types.Schema
	rowsPerPage int
	off         int64
	fileCRC     uint32 // running CRC32-C over page payloads then directory payload
	parts       []PartDir
	cur         []types.Tuple
	curEnc      int64
	buf         []byte
	rows        int64
	finished    bool
}

// NewPageWriter creates the page file at path (failing if it exists).
// rowsPerPage < 1 selects DefaultPageRows.
func NewPageWriter(path string, schema *types.Schema, rowsPerPage int) (*PageWriter, error) {
	if rowsPerPage < 1 {
		rowsPerPage = DefaultPageRows
	}
	if rowsPerPage > types.MaxPageRows {
		rowsPerPage = types.MaxPageRows
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create page file: %w", err)
	}
	return &PageWriter{f: f, path: path, schema: schema, rowsPerPage: rowsPerPage}, nil
}

// StartPartition closes the current partition (flushing its last page) and
// begins the next. Every partition of the dataset must be started, in order,
// even when empty, so the directory's partition count matches the cluster's.
func (w *PageWriter) StartPartition() error {
	if len(w.parts) > 0 {
		if err := w.flushPage(); err != nil {
			return err
		}
	}
	w.parts = append(w.parts, PartDir{})
	return nil
}

// Append adds one row to the current partition.
func (w *PageWriter) Append(t types.Tuple) error {
	if len(w.parts) == 0 {
		return fmt.Errorf("storage: page append before StartPartition")
	}
	w.cur = append(w.cur, t)
	w.curEnc += int64(t.EncodedSize())
	if len(w.cur) >= w.rowsPerPage {
		return w.flushPage()
	}
	return nil
}

// flushPage encodes and writes the buffered rows as one page frame.
func (w *PageWriter) flushPage() error {
	if len(w.cur) == 0 {
		return nil
	}
	if cap(w.buf) < 8 {
		w.buf = make([]byte, 8, 4096)
	}
	payload, st := types.EncodePage(w.buf[:8], w.schema, w.cur)
	w.buf = payload
	body := payload[8:]
	if len(body) > maxPagePayload {
		return fmt.Errorf("storage: page payload of %d bytes exceeds the %d-byte bound", len(body), maxPagePayload)
	}
	binary.LittleEndian.PutUint32(payload[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(payload[4:], types.CRC32C(body))
	if _, err := w.f.Write(payload); err != nil {
		return classifySpill("page write", err)
	}
	p := &w.parts[len(w.parts)-1]
	p.Pages = append(p.Pages, PageInfo{
		Offset:   w.off,
		Len:      int32(len(body)),
		Rows:     int32(len(w.cur)),
		EncBytes: w.curEnc,
		Cols:     st,
	})
	p.Rows += int64(len(w.cur))
	p.EncBytes += w.curEnc
	w.rows += int64(len(w.cur))
	w.fileCRC = types.CRC32CUpdate(w.fileCRC, body)
	w.off += int64(len(payload))
	w.cur = w.cur[:0]
	w.curEnc = 0
	// Keep the frame buffer but reset it for the next page's header.
	if cap(w.buf) > 0 {
		w.buf = w.buf[:8]
	}
	return nil
}

// Finish writes the directory and footer, fsyncs, and closes the file.
func (w *PageWriter) Finish() error {
	if w.finished {
		return nil
	}
	if err := w.flushPage(); err != nil {
		return err
	}
	dir := encodeDirectory(nil, w.parts)
	frame := make([]byte, 8, 8+len(dir))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(dir)))
	binary.LittleEndian.PutUint32(frame[4:], types.CRC32C(dir))
	frame = append(frame, dir...)
	dirOffset := w.off
	if _, err := w.f.Write(frame); err != nil {
		return classifySpill("page directory write", err)
	}
	w.fileCRC = types.CRC32CUpdate(w.fileCRC, dir)
	w.off += int64(len(frame))

	var ftr [pageFooterLen]byte
	// ftr[0:4] stays zero: the footer is framed as the zero-length block.
	copy(ftr[8:16], pageMagic[:])
	binary.LittleEndian.PutUint64(ftr[16:], uint64(dirOffset))
	binary.LittleEndian.PutUint64(ftr[24:], uint64(w.rows))
	binary.LittleEndian.PutUint32(ftr[32:], w.fileCRC)
	binary.LittleEndian.PutUint32(ftr[4:], types.CRC32C(ftr[8:]))
	if _, err := w.f.Write(ftr[:]); err != nil {
		return classifySpill("page footer write", err)
	}
	if err := w.f.Sync(); err != nil {
		return classifySpill("page sync", err)
	}
	if err := w.f.Close(); err != nil {
		return classifySpill("page close", err)
	}
	w.finished = true
	return nil
}

// Rows returns the rows appended so far.
func (w *PageWriter) Rows() int64 { return w.rows }

// encodeDirectory appends the directory payload for parts to dst.
func encodeDirectory(dst []byte, parts []PartDir) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(parts)))
	for _, p := range parts {
		dst = binary.AppendUvarint(dst, uint64(len(p.Pages)))
		dst = binary.AppendUvarint(dst, uint64(p.Rows))
		dst = binary.AppendUvarint(dst, uint64(p.EncBytes))
		for _, pg := range p.Pages {
			dst = binary.AppendUvarint(dst, uint64(pg.Offset))
			dst = binary.AppendUvarint(dst, uint64(pg.Len))
			dst = binary.AppendUvarint(dst, uint64(pg.Rows))
			dst = binary.AppendUvarint(dst, uint64(pg.EncBytes))
			dst = binary.AppendUvarint(dst, uint64(len(pg.Cols)))
			for _, cs := range pg.Cols {
				dst = binary.AppendUvarint(dst, uint64(cs.Nulls))
				if cs.HasMinMax {
					dst = append(dst, 1)
					dst = types.AppendValue(dst, cs.Min)
					dst = types.AppendValue(dst, cs.Max)
				} else {
					dst = append(dst, 0)
				}
			}
		}
	}
	return dst
}

// decodeDirectory decodes a directory payload.
func decodeDirectory(src []byte, ncols int) ([]PartDir, error) {
	np, off := binary.Uvarint(src)
	if off <= 0 || np > 1<<20 {
		return nil, corruptPagef("page directory: bad partition count")
	}
	parts := make([]PartDir, np)
	for p := range parts {
		npg, m := binary.Uvarint(src[off:])
		if m <= 0 || npg > 1<<24 {
			return nil, corruptPagef("page directory: bad page count for partition %d", p)
		}
		off += m
		rows, m := binary.Uvarint(src[off:])
		if m <= 0 {
			return nil, corruptPagef("page directory: bad row count for partition %d", p)
		}
		off += m
		enc, m := binary.Uvarint(src[off:])
		if m <= 0 {
			return nil, corruptPagef("page directory: bad byte count for partition %d", p)
		}
		off += m
		parts[p].Rows, parts[p].EncBytes = int64(rows), int64(enc)
		parts[p].Pages = make([]PageInfo, npg)
		for i := range parts[p].Pages {
			pg := &parts[p].Pages[i]
			var fields [4]uint64
			for f := range fields {
				v, m := binary.Uvarint(src[off:])
				if m <= 0 {
					return nil, corruptPagef("page directory: truncated page entry")
				}
				off += m
				fields[f] = v
			}
			pg.Offset = int64(fields[0])
			pg.Len = int32(fields[1])
			pg.Rows = int32(fields[2])
			pg.EncBytes = int64(fields[3])
			if fields[1] > maxPagePayload || fields[2] > types.MaxPageRows {
				return nil, corruptPagef("page directory: page bounds out of range")
			}
			nc, m := binary.Uvarint(src[off:])
			if m <= 0 || int(nc) != ncols {
				return nil, corruptPagef("page directory: column count %d disagrees with schema width %d", nc, ncols)
			}
			off += m
			pg.Cols = make([]types.PageColStats, nc)
			for c := range pg.Cols {
				nulls, m := binary.Uvarint(src[off:])
				if m <= 0 {
					return nil, corruptPagef("page directory: truncated zone map")
				}
				off += m
				if off >= len(src) {
					return nil, corruptPagef("page directory: truncated zone map flag")
				}
				has := src[off]
				off++
				pg.Cols[c].Nulls = int64(nulls)
				if has == 1 {
					mn, n, err := types.DecodeValue(src[off:])
					if err != nil {
						return nil, err
					}
					off += n
					mx, n, err := types.DecodeValue(src[off:])
					if err != nil {
						return nil, err
					}
					off += n
					pg.Cols[c].Min, pg.Cols[c].Max, pg.Cols[c].HasMinMax = mn, mx, true
				} else if has != 0 {
					return nil, corruptPagef("page directory: bad zone map flag %d", has)
				}
			}
		}
	}
	if off != len(src) {
		return nil, corruptPagef("page directory: %d trailing bytes", len(src)-off)
	}
	return parts, nil
}

// PageFile is an open page file: verified footer and directory, pages read
// lazily (each verified against its own CRC on read). Safe for concurrent
// ReadPage calls.
type PageFile struct {
	path   string
	f      *os.File
	schema *types.Schema
	parts  []PartDir
	rows   int64
	Faults *faults.Registry
}

// OpenPageFile opens and verifies (footer + directory) a page file. The
// page.corrupt injection point mutates the sealed file in place first —
// at-rest damage the reader's checksums must catch.
func OpenPageFile(path string, schema *types.Schema, reg *faults.Registry) (*PageFile, error) {
	if err := reg.Fire(faults.Point("page.open")); err != nil {
		return nil, classifySpill("page open", err)
	}
	if err := reg.MutateFile(faults.Point("page.corrupt"), path); err != nil {
		return nil, classifySpill("page corrupt", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, classifySpill("page open", err)
	}
	pf := &PageFile{path: path, f: f, schema: schema, Faults: reg}
	if err := pf.loadDirectory(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

// loadDirectory verifies the footer and decodes the directory.
func (pf *PageFile) loadDirectory() error {
	st, err := pf.f.Stat()
	if err != nil {
		return classifySpill("page stat", err)
	}
	size := st.Size()
	if size < pageFooterLen {
		return corruptPagef("page file %s is %d bytes, shorter than its footer", pf.path, size)
	}
	var ftr [pageFooterLen]byte
	if _, err := pf.f.ReadAt(ftr[:], size-pageFooterLen); err != nil {
		return classifySpill("page footer read", err)
	}
	if binary.LittleEndian.Uint32(ftr[0:4]) != 0 {
		return corruptPagef("page file %s footer frame is not the zero-length block", pf.path)
	}
	if got, want := types.CRC32C(ftr[8:]), binary.LittleEndian.Uint32(ftr[4:8]); got != want {
		return corruptPagef("page file %s footer checksum mismatch (stored %08x, computed %08x)", pf.path, want, got)
	}
	if [8]byte(ftr[8:16]) != pageMagic {
		return corruptPagef("page file %s footer magic mismatch (%q)", pf.path, ftr[8:16])
	}
	dirOffset := int64(binary.LittleEndian.Uint64(ftr[16:24]))
	pf.rows = int64(binary.LittleEndian.Uint64(ftr[24:32]))
	if dirOffset < 0 || dirOffset > size-pageFooterLen-8 {
		return corruptPagef("page file %s directory offset %d out of range", pf.path, dirOffset)
	}
	var hdr [8]byte
	if _, err := pf.f.ReadAt(hdr[:], dirOffset); err != nil {
		return classifySpill("page directory read", err)
	}
	dlen := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(dlen) != size-pageFooterLen-dirOffset-8 {
		return corruptPagef("page file %s directory length %d disagrees with file layout", pf.path, dlen)
	}
	dir := make([]byte, dlen)
	if _, err := io.ReadFull(io.NewSectionReader(pf.f, dirOffset+8, int64(dlen)), dir); err != nil {
		return classifySpill("page directory read", err)
	}
	if got, want := types.CRC32C(dir), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return corruptPagef("page file %s directory checksum mismatch (stored %08x, computed %08x)", pf.path, want, got)
	}
	parts, err := decodeDirectory(dir, pf.schema.Len())
	if err != nil {
		return err
	}
	var rows int64
	for _, p := range parts {
		rows += p.Rows
	}
	if rows != pf.rows {
		return corruptPagef("page file %s directory holds %d rows but the footer sealed %d", pf.path, rows, pf.rows)
	}
	pf.parts = parts
	return nil
}

// Close releases the read handle.
func (pf *PageFile) Close() error { return pf.f.Close() }

// Path returns the file's path (corruption tests mutate it directly).
func (pf *PageFile) Path() string { return pf.path }

// Schema returns the schema pages decode against.
func (pf *PageFile) Schema() *types.Schema { return pf.schema }

// Partitions returns the number of partitions the file holds.
func (pf *PageFile) Partitions() int { return len(pf.parts) }

// Part returns partition p's directory (read-only).
func (pf *PageFile) Part(p int) *PartDir { return &pf.parts[p] }

// Rows returns the total sealed row count.
func (pf *PageFile) Rows() int64 { return pf.rows }

// ReadPage reads and CRC-verifies page i of partition p, returning the
// verified payload. The whole frame — 8 header bytes, then the payload whose
// length the directory holds — comes in one read, into buf when its capacity
// holds the frame (the payload is then a subslice of buf), else into a fresh
// buffer.
func (pf *PageFile) ReadPage(buf []byte, p, i int) ([]byte, error) {
	if err := pf.Faults.Fire(faults.Point("page.read")); err != nil {
		return nil, classifySpill("page read", err)
	}
	pg := &pf.parts[p].Pages[i]
	n := 8 + int(pg.Len)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	frame := buf[:n]
	got, err := pf.f.ReadAt(frame, pg.Offset)
	if got >= 8 {
		if plen := binary.LittleEndian.Uint32(frame[0:4]); int32(plen) != pg.Len {
			return nil, corruptPagef("page %d/%d frame length %d disagrees with its directory entry %d", p, i, plen, pg.Len)
		}
	}
	if err != nil {
		return nil, classifySpill("page read", err)
	}
	payload := frame[8:]
	if got, want := types.CRC32C(payload), binary.LittleEndian.Uint32(frame[4:8]); got != want {
		return nil, corruptPagef("page %d/%d checksum mismatch (stored %08x, computed %08x)", p, i, want, got)
	}
	return payload, nil
}

// Verify checks the whole file end to end: every page frame against its CRC
// and directory entry, the directory and footer seals, and the running
// whole-file checksum. Damage returns a classified faults.ErrCorrupt.
func (pf *PageFile) Verify() error {
	var crc uint32
	var buf []byte
	var err error
	var pd types.PageData
	for p := range pf.parts {
		for i := range pf.parts[p].Pages {
			buf, err = pf.ReadPage(buf, p, i)
			if err != nil {
				return err
			}
			if err := pd.DecodePage(buf, pf.schema, nil); err != nil {
				return err
			}
			if pd.NRows != int(pf.parts[p].Pages[i].Rows) {
				return corruptPagef("page %d/%d decodes %d rows but its directory entry holds %d", p, i, pd.NRows, pf.parts[p].Pages[i].Rows)
			}
			crc = crc32Update(crc, buf)
		}
	}
	// Re-derive the directory payload CRC from the file (the footer's
	// whole-file checksum covers page payloads then directory payload).
	st, err := pf.f.Stat()
	if err != nil {
		return classifySpill("page stat", err)
	}
	var ftr [pageFooterLen]byte
	if _, err := pf.f.ReadAt(ftr[:], st.Size()-pageFooterLen); err != nil {
		return classifySpill("page footer read", err)
	}
	dirOffset := int64(binary.LittleEndian.Uint64(ftr[16:24]))
	var hdr [8]byte
	if _, err := pf.f.ReadAt(hdr[:], dirOffset); err != nil {
		return classifySpill("page directory read", err)
	}
	dlen := binary.LittleEndian.Uint32(hdr[0:4])
	dir := make([]byte, dlen)
	if _, err := io.ReadFull(io.NewSectionReader(pf.f, dirOffset+8, int64(dlen)), dir); err != nil {
		return classifySpill("page directory read", err)
	}
	crc = crc32Update(crc, dir)
	if sealed := binary.LittleEndian.Uint32(ftr[32:36]); sealed != crc {
		return corruptPagef("page file %s whole-file checksum mismatch (sealed %08x, computed %08x)", pf.path, sealed, crc)
	}
	return nil
}

// crc32Update extends a running CRC32-C.
func crc32Update(crc uint32, b []byte) uint32 {
	return types.CRC32CUpdate(crc, b)
}

// PageCache is the byte-budgeted cache of verified page payloads shared by
// every scan of a paged dataset, charged against the memory governor through
// the Reserve/Release hooks (nil hooks run unmetered). Eviction is LRU;
// a page larger than the whole budget is returned uncached.
type PageCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[pageKey]*cacheEntry
	head    *cacheEntry // most recent
	tail    *cacheEntry // least recent
	hits    int64
	misses  int64

	// Reserve/Release charge cached bytes against the memory governor. A nil
	// Reserve runs unmetered; a false return declines the cache insert (cross-
	// query pressure: serve the read through without holding the bytes).
	Reserve func(int64) bool
	Release func(int64)
}

// pageKey identifies one page payload in a cache shared across many paged
// datasets: the owning file's identity disambiguates (part, page)
// coordinates that every file has.
type pageKey struct {
	file       *PageFile
	part, page int32
}

type cacheEntry struct {
	key        pageKey
	buf        []byte
	prev, next *cacheEntry
}

// NewPageCache returns a cache holding at most budget payload bytes.
func NewPageCache(budget int64) *PageCache {
	return &PageCache{budget: budget, entries: map[pageKey]*cacheEntry{}}
}

// Stats returns cache hits and misses so far.
func (c *PageCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Get returns the cached payload for file page (part, page), or nil. The
// returned slice is shared and must be treated as read-only.
func (c *PageCache) Get(file *PageFile, part, page int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[pageKey{file, int32(part), int32(page)}]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.moveToFront(e)
	return e.buf
}

// Put caches a verified payload, taking ownership of the slice (callers
// hand over a freshly read buffer and must not reuse it). Eviction and
// governor pressure may decline the insert; reads still succeed either way.
func (c *PageCache) Put(file *PageFile, part, page int, payload []byte) {
	n := int64(len(payload))
	if n == 0 || n > c.budget {
		return
	}
	key := pageKey{file, int32(part), int32(page)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for c.used+n > c.budget && c.tail != nil {
		c.evict(c.tail)
	}
	if c.used+n > c.budget {
		return
	}
	if c.Reserve != nil && !c.Reserve(n) {
		// Cross-query pressure: the failed reservation charged the bytes, so
		// undo and serve the read uncached.
		c.Release(n)
		return
	}
	e := &cacheEntry{key: key, buf: payload}
	c.entries[key] = e
	c.used += n
	c.pushFront(e)
}

// Used returns the cached payload bytes currently held.
func (c *PageCache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Close evicts everything, returning all reserved bytes to the governor.
func (c *PageCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.tail != nil {
		c.evict(c.tail)
	}
}

// evict removes e; the caller holds c.mu.
func (c *PageCache) evict(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.used -= int64(len(e.buf))
	if c.Release != nil {
		c.Release(int64(len(e.buf)))
	}
}

func (c *PageCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *PageCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *PageCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
