package types

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"dynopt/internal/faults"
)

// Binary tuple codec backing the run files of the real spill path. The
// layout mirrors the simulated accounting of EncodedSize — one kind tag byte
// followed by the payload (8 little-endian bytes for int/float, 1 byte for
// bool, the raw bytes for strings) — with two additions the simulated model
// does not need but a decoder does: a uvarint column count in front of every
// tuple, and a uvarint length in front of every string payload (EncodedSize
// prices a string as 1+len, which is not self-delimiting). Encoded tuples
// are therefore a few bytes wider than their EncodedSize; spill metering
// charges the actual bytes written, framing included.
//
// Run-file format. Records never hit the device bare: every RunWriter flush
// emits one self-verifying block, and Finish seals the file with a footer,
// so a reader can prove end to end that the bytes coming off disk are the
// bytes that went in:
//
//	file   = block* footer
//	block  = len u32le (1..maxBlockBytes) | crc u32le | payload (len bytes)
//	record = uvarint payload length | EncodeTuple payload   (within a block)
//	footer = 0 u32le | crc u32le | magic [8]byte | rows u64le |
//	         payloadBytes u64le | fileCRC u32le
//
// The crc of each block is CRC32-C of its payload; the footer is framed as
// the zero-length block, its crc covering the 24 footer payload bytes, with
// fileCRC a running CRC32-C over every block payload in file order. Records
// never span blocks (a flush always writes whole records), so one verified
// block is decodable in isolation. Every failure mode is detected, not
// silent: a bit flip fails a block or footer CRC, truncation at any offset —
// including a clean record or block boundary — leaves the footer missing or
// short, and a file with a valid footer must account for exactly the rows
// and payload bytes the writer sealed. All such failures carry
// faults.ErrCorrupt.

// MaxRecordBytes bounds one encoded record (tuple plus framing). The writer
// refuses larger appends; the reader classifies larger record or string
// lengths as corruption instead of allocating attacker-controlled amounts —
// a corrupt length prefix cannot OOM the server.
const MaxRecordBytes = 16 << 20

// runWriterBufSize is the flush threshold of RunWriter's internal buffer:
// the target block payload size. Checksumming rides the flush path, once per
// block, never per row.
const runWriterBufSize = 64 << 10

// maxBlockBytes bounds one block's payload: buffered records stay below the
// flush threshold, plus the one record that crossed it.
const maxBlockBytes = runWriterBufSize + MaxRecordBytes + 16

const (
	blockHeaderLen   = 8  // len u32le + crc u32le
	footerPayloadLen = 28 // magic(8) + rows(8) + payloadBytes(8) + fileCRC(4)
)

// runMagic seals the footer of a finished run file.
var runMagic = [8]byte{'D', 'Y', 'N', 'R', 'U', 'N', '1', 0}

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// corruptf builds a corruption error carrying the faults.ErrCorrupt
// sentinel, so storage and engine layers classify with errors.Is.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("types: "+format+": %w", append(args, faults.ErrCorrupt)...)
}

// EncodeTuple appends the binary encoding of t to dst and returns the
// extended slice. The encoding round-trips through DecodeTuple for every
// value kind, including NULL.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		switch v.K {
		case KindInt, KindFloat:
			dst = append(dst, byte(v.K))
			dst = binary.LittleEndian.AppendUint64(dst, v.num)
		case KindString:
			dst = append(dst, byte(KindString))
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case KindBool:
			b := byte(0)
			if v.B {
				b = 1
			}
			dst = append(dst, byte(KindBool), b)
		default:
			// KindNull is tag-only. Unknown kinds cannot occur for values
			// built through this package's constructors, but K is an
			// exported field: encode them as NULL so the stream stays
			// decodable rather than writing a tag the decoder rejects.
			dst = append(dst, byte(KindNull))
		}
	}
	return dst
}

// DecodeTuple decodes one tuple from the front of src, returning the tuple
// and the number of bytes consumed. String payloads are copied, so the
// returned tuple does not alias src. Malformed input — truncation, unknown
// tags, or lengths beyond MaxRecordBytes — returns an error classified
// faults.ErrCorrupt; allocation is always bounded by the input length.
func DecodeTuple(src []byte) (Tuple, int, error) {
	return decodeTuple(src, nil)
}

// decodeTuple is the one decode loop behind DecodeTuple (a == nil: a heap
// tuple) and RunReader.NextIn (the tuple carved from a). Only the value
// slots come from the arena — string payloads are still copied out of src,
// so the tuple aliases neither src nor the pooled frame src lives in.
//
//dynopt:hotpath
func decodeTuple(src []byte, a *Arena) (Tuple, int, error) {
	n, off := binary.Uvarint(src)
	if off <= 0 {
		return nil, 0, corruptf("decode tuple: bad column count")
	}
	if n > uint64(len(src)) { // cheap sanity bound: ≥1 byte per column
		//dynopt:alloc-ok corruption error path, never taken on an intact run
		return nil, 0, corruptf("decode tuple: column count %d exceeds input", n)
	}
	var t Tuple
	if a != nil {
		t = a.Make(int(n))
	} else {
		t = make(Tuple, n) //dynopt:alloc-ok the heap decode (DecodeTuple): a tuple per call is its contract
	}
	for i := range t {
		if off >= len(src) {
			//dynopt:alloc-ok corruption error path, never taken on an intact run
			return nil, 0, corruptf("decode tuple: truncated at column %d", i)
		}
		k := Kind(src[off])
		off++
		switch k {
		case KindNull:
			t[i] = Value{K: KindNull}
		case KindInt, KindFloat:
			if off+8 > len(src) {
				//dynopt:alloc-ok corruption error path, never taken on an intact run
				return nil, 0, corruptf("decode tuple: truncated %v payload", k)
			}
			t[i] = Value{K: k, num: binary.LittleEndian.Uint64(src[off:])}
			off += 8
		case KindString:
			sl, m := binary.Uvarint(src[off:])
			if m <= 0 || sl > MaxRecordBytes {
				//dynopt:alloc-ok corruption error path, never taken on an intact run
				return nil, 0, corruptf("decode tuple: string length %d out of bounds", sl)
			}
			if uint64(len(src)-off-m) < sl {
				return nil, 0, corruptf("decode tuple: truncated string payload")
			}
			off += m
			t[i] = Value{K: KindString, S: string(src[off : off+int(sl)])} //dynopt:alloc-ok string payloads are copied, never aliased into a pooled block
			off += int(sl)
		case KindBool:
			if off >= len(src) {
				return nil, 0, corruptf("decode tuple: truncated bool payload")
			}
			t[i] = Value{K: KindBool, B: src[off] != 0}
			off++
		default:
			//dynopt:alloc-ok corruption error path, never taken on an intact run
			return nil, 0, corruptf("decode tuple: unknown kind tag %d", k)
		}
	}
	return t, off, nil
}

// Block buffers come from a process-wide pool of fixed-size frames, the
// frame discipline of the dynamic hybrid hash join ("Design Trade-offs for a
// Robust Dynamic Hybrid Hash Join", PAPERS.md): a run holds one frame while
// it is written and each reader holds one while it reads, so a query stream
// spilling thousands of runs cycles the same frames instead of allocating a
// block buffer per run for the collector to find. A frame holds a block
// header, a payload at the flush threshold, and one record of slack past it —
// a flush fires only once the payload reaches the threshold, so a full block
// is the threshold plus the record that crossed it. A reader reads a block's
// payload together with the next block's header, which fits the same frame.
// Only a record wider than the slack makes a writer or reader outgrow its
// frame, into a buffer of its own that never enters the pool.
const runFrameSlack = 4 << 10

type runFrame [blockHeaderLen + runWriterBufSize + runFrameSlack]byte

var runFrames = sync.Pool{New: func() any { return new(runFrame) }}

// RunWriter appends encoded tuples to an io.Writer as checksummed blocks
// (see the format comment above). It is the write half of a spill run file:
// append-only, buffered, and it counts exactly the bytes it hands to the
// underlying writer so spill metering can charge actual I/O. Finish seals
// the run with the footer and returns the writer's frame to the pool; a run
// without a footer reads back as corrupt by design — an unsealed file is
// indistinguishable from a truncated one.
//
// Not safe for concurrent use; each run file is owned by one partition
// goroutine.
type RunWriter struct {
	w        io.Writer
	frame    *runFrame // pooled backing of buf, returned by Finish
	buf      []byte    // block under construction; [0:8] reserved for the header
	rows     int64
	bytes    int64  // bytes written through, framing included
	payload  int64  // block payload bytes written (excludes headers/footer)
	fileCRC  uint32 // running CRC32-C over all block payloads
	finished bool
}

// NewRunWriter returns a writer appending records to w.
func NewRunWriter(w io.Writer) *RunWriter {
	f := runFrames.Get().(*runFrame)
	return &RunWriter{w: w, frame: f, buf: f[:blockHeaderLen]}
}

// Append encodes one tuple into the run. The record is encoded in place
// behind a one-byte length prefix; a record of 128 bytes or more, whose
// uvarint length is wider, is shifted right to make room.
func (w *RunWriter) Append(t Tuple) error {
	if w.finished {
		return fmt.Errorf("types: append to a finished run")
	}
	start := len(w.buf)
	w.buf = EncodeTuple(append(w.buf, 0), t)
	n := len(w.buf) - start - 1
	if n > MaxRecordBytes {
		w.buf = w.buf[:start]
		return fmt.Errorf("types: record of %d bytes exceeds MaxRecordBytes (%d)", n, MaxRecordBytes)
	}
	if n >= 0x80 {
		var pfx [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(pfx[:], uint64(n))
		w.buf = append(w.buf, pfx[1:k]...)
		copy(w.buf[start+k:], w.buf[start+1:start+1+n])
		copy(w.buf[start:], pfx[:k])
	} else {
		w.buf[start] = byte(n)
	}
	w.rows++
	if len(w.buf)-blockHeaderLen >= runWriterBufSize {
		return w.Flush()
	}
	return nil
}

// Flush seals the buffered records into one checksummed block and writes it
// through to the underlying writer.
func (w *RunWriter) Flush() error {
	if w.finished {
		return nil
	}
	payload := w.buf[blockHeaderLen:]
	if len(payload) == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.Checksum(payload, castagnoli))
	n, err := w.w.Write(w.buf)
	w.bytes += int64(n)
	if err == nil && n < len(w.buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		w.fileCRC = crc32.Update(w.fileCRC, castagnoli, payload)
		w.payload += int64(len(payload))
	}
	w.buf = w.buf[:blockHeaderLen]
	return err
}

// Finish flushes the last block and seals the run with the footer: magic,
// total row count, total payload bytes, and the whole-file checksum. A
// reader verifies all of it back, so truncation at any boundary — block,
// record, or mid-byte — is detected, never silent. A sealed writer's frame
// goes back to the pool. Idempotent.
func (w *RunWriter) Finish() error {
	if w.finished {
		return nil
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var ftr [blockHeaderLen + footerPayloadLen]byte
	// ftr[0:4] stays zero: the footer is framed as the zero-length block.
	copy(ftr[8:16], runMagic[:])
	binary.LittleEndian.PutUint64(ftr[16:], uint64(w.rows))
	binary.LittleEndian.PutUint64(ftr[24:], uint64(w.payload))
	binary.LittleEndian.PutUint32(ftr[32:], w.fileCRC)
	binary.LittleEndian.PutUint32(ftr[4:], crc32.Checksum(ftr[8:], castagnoli))
	n, err := w.w.Write(ftr[:])
	w.bytes += int64(n)
	if err == nil && n < len(ftr) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return err
	}
	w.finished = true
	runFrames.Put(w.frame)
	w.frame, w.buf = nil, nil
	return nil
}

// Rows returns the number of tuples appended.
func (w *RunWriter) Rows() int64 { return w.rows }

// Bytes returns the bytes written through to the underlying writer so far,
// block framing and footer included (buffered-but-unflushed records are not
// counted; call Finish first for the final figure).
func (w *RunWriter) Bytes() int64 { return w.bytes }

// errRunClosed is what a RunReader returns once Close handed its frame back:
// never io.EOF, which would read as a clean, complete run. It is classified
// like a read from a closed file.
var errRunClosed = fmt.Errorf("types: read from a closed run reader: %w", faults.ErrSpillIO)

// RunReader streams tuples back out of a run written by RunWriter, verifying
// every block checksum before decoding and the footer seal at EOF. Next
// returns io.EOF only after the footer verified; every other irregularity —
// checksum mismatch, bad framing, truncation anywhere, trailing garbage,
// row or byte counts disagreeing with the seal — is an error classified
// faults.ErrCorrupt. Each block is read in one call together with the
// header of the block after it, into a pooled frame that Close returns.
type RunReader struct {
	r       io.Reader
	frame   *runFrame // pooled backing of buf, returned by Close
	buf     []byte    // backing storage for block and the read-ahead header
	block   []byte    // current verified block payload
	off     int       // consumed bytes within block
	hdr     [blockHeaderLen]byte
	ahead   bool   // hdr holds the next block's header, read with the last block
	rows    int64  // records consumed (or counted, under Verify)
	payload int64  // payload bytes of verified blocks
	fileCRC uint32 // running CRC32-C over verified block payloads
	sealed  bool   // footer verified; subsequent reads return io.EOF
	closed  bool
}

// NewRunReader returns a reader over r.
func NewRunReader(r io.Reader) *RunReader {
	f := runFrames.Get().(*runFrame)
	return &RunReader{r: r, frame: f, buf: f[:0]}
}

// Close returns the reader's frame to the pool. Every read after it fails
// classified faults.ErrSpillIO — never io.EOF. Idempotent.
func (r *RunReader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	runFrames.Put(r.frame)
	r.frame, r.buf, r.block, r.off = nil, nil, nil, 0
}

// Next decodes the next tuple onto the heap, returning io.EOF at the
// verified end of the run and an ErrCorrupt-classified error for any damage
// in between.
func (r *RunReader) Next() (Tuple, error) {
	return r.NextIn(nil)
}

// NextIn is Next with the tuple carved from a (nil: the heap). The tuple's
// strings are copied out of the block; its value slots live as long as a
// keeps them.
func (r *RunReader) NextIn(a *Arena) (Tuple, error) {
	for r.off >= len(r.block) {
		if err := r.loadBlock(); err != nil {
			return nil, err // io.EOF only after a verified footer
		}
	}
	payload, err := r.record()
	if err != nil {
		return nil, err
	}
	t, used, err := decodeTuple(payload, a)
	if err != nil {
		return nil, err
	}
	if used != len(payload) {
		return nil, corruptf("run record has %d trailing bytes", len(payload)-used)
	}
	return t, nil
}

// record consumes one length-prefixed record from the current block,
// returning its payload. Records cannot span blocks, so the bounds checks
// here are against verified in-memory data only.
func (r *RunReader) record() ([]byte, error) {
	n, m := binary.Uvarint(r.block[r.off:])
	if m <= 0 {
		return nil, corruptf("run record has a malformed length prefix")
	}
	if n > MaxRecordBytes {
		return nil, corruptf("run record length %d exceeds MaxRecordBytes (%d)", n, MaxRecordBytes)
	}
	if int(n) > len(r.block)-r.off-m {
		return nil, corruptf("run record of %d bytes crosses its block boundary", n)
	}
	p := r.block[r.off+m : r.off+m+int(n)]
	r.off += m + int(n)
	r.rows++
	return p, nil
}

// loadBlock reads and verifies the next block, or the footer. The block's
// payload and the header after it arrive in one read (every block is
// followed by another header: the next block's, or the footer's); only the
// first block's header is read on its own. On return either r.block holds a
// verified payload (off reset to 0), or the footer verified and the error
// is io.EOF.
func (r *RunReader) loadBlock() error {
	if r.closed {
		return errRunClosed
	}
	if r.sealed {
		return io.EOF
	}
	if !r.ahead {
		if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return corruptf("run truncated before its footer")
			}
			return err
		}
	}
	r.ahead = false
	ln := binary.LittleEndian.Uint32(r.hdr[:4])
	crc := binary.LittleEndian.Uint32(r.hdr[4:])
	if ln == 0 {
		return r.readFooter(crc)
	}
	if ln > maxBlockBytes {
		return corruptf("run block length %d exceeds the %d-byte bound", ln, maxBlockBytes)
	}
	want := int(ln) + blockHeaderLen
	if cap(r.buf) < want {
		r.buf = make([]byte, want) // a record wider than the frame's slack
	}
	r.buf = r.buf[:want]
	if n, err := io.ReadFull(r.r, r.buf); err != nil {
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			return err
		}
		if n < int(ln) {
			return corruptf("run truncated inside a %d-byte block", ln)
		}
		return corruptf("run truncated before its footer")
	}
	payload := r.buf[:ln]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return corruptf("run block checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	copy(r.hdr[:], r.buf[ln:])
	r.ahead = true
	r.fileCRC = crc32.Update(r.fileCRC, castagnoli, payload)
	r.payload += int64(ln)
	r.block, r.off = payload, 0
	return nil
}

// readFooter verifies the seal against everything read so far and checks
// nothing trails it — in one read that asks for one byte past the footer.
// Returns io.EOF on a fully verified run.
func (r *RunReader) readFooter(crc uint32) error {
	var ftr [footerPayloadLen + 1]byte
	n, err := io.ReadFull(r.r, ftr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	if n < footerPayloadLen {
		return corruptf("run truncated inside its footer")
	}
	if got := crc32.Checksum(ftr[:footerPayloadLen], castagnoli); got != crc {
		return corruptf("run footer checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	if [8]byte(ftr[0:8]) != runMagic {
		return corruptf("run footer magic mismatch (%q)", ftr[0:8])
	}
	if rows := binary.LittleEndian.Uint64(ftr[8:]); rows != uint64(r.rows) {
		return corruptf("run sealed %d rows but %d were read back", rows, r.rows)
	}
	if pb := binary.LittleEndian.Uint64(ftr[16:]); pb != uint64(r.payload) {
		return corruptf("run sealed %d payload bytes but %d were read back", pb, r.payload)
	}
	if fc := binary.LittleEndian.Uint32(ftr[24:]); fc != r.fileCRC {
		return corruptf("run whole-file checksum mismatch (sealed %08x, computed %08x)", fc, r.fileCRC)
	}
	if n > footerPayloadLen {
		return corruptf("run has trailing bytes after its footer")
	}
	r.sealed = true
	return io.EOF
}

// Rows returns the number of records consumed (decoded by Next, or counted
// by Verify) so far.
func (r *RunReader) Rows() int64 { return r.rows }

// Verify walks the remaining run without decoding tuples: every block
// checksum, every record frame, and the footer seal are checked, and the
// record count accumulates into Rows. A nil return means the run is intact
// end to end; damage returns an ErrCorrupt-classified error. This is the
// cheap pre-join integrity pass of the DHHJ — CRC bandwidth, no per-row
// allocation.
func (r *RunReader) Verify() error {
	for {
		for r.off >= len(r.block) {
			err := r.loadBlock()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
		if _, err := r.record(); err != nil {
			return err
		}
	}
}
