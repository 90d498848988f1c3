package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"dynopt/internal/faults"
)

// codecCases covers every kind, including the tricky payloads: negative and
// extreme ints, NaN/Inf/negative-zero floats, empty and multi-byte strings.
func codecCases() []Tuple {
	return []Tuple{
		{},
		{Null()},
		{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(3.25)},
		{Str(""), Str("a"), Str("héllo, wörld"), Str(string(make([]byte, 1000)))},
		{Bool(true), Bool(false)},
		{Null(), Int(42), Float(-7.5), Str("mixed"), Bool(true), Null()},
	}
}

func tuplesEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K {
			return false
		}
		// Compare raw payloads (NaN != NaN under Compare semantics).
		if a[i].num != b[i].num || a[i].S != b[i].S || a[i].B != b[i].B {
			return false
		}
	}
	return true
}

func TestEncodeDecodeTupleRoundTrip(t *testing.T) {
	for _, tu := range codecCases() {
		enc := EncodeTuple(nil, tu)
		got, n, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", tu, err)
		}
		if n != len(enc) {
			t.Errorf("decode %s consumed %d of %d bytes", tu, n, len(enc))
		}
		if !tuplesEqual(tu, got) {
			t.Errorf("round trip changed tuple: %s -> %s", tu, got)
		}
	}
}

func TestDecodeTupleTruncated(t *testing.T) {
	full := EncodeTuple(nil, Tuple{Int(7), Str("hello"), Bool(true)})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeTuple(full[:cut]); err == nil {
			t.Errorf("truncation at %d of %d decoded without error", cut, len(full))
		}
	}
}

func TestRunWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	var want []Tuple
	for i := 0; i < 500; i++ {
		tu := Tuple{Int(int64(i)), Str("row"), Float(float64(i) / 3), Bool(i%2 == 0), Null()}
		want = append(want, tu)
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 500 {
		t.Errorf("rows = %d", w.Rows())
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Errorf("writer counted %d bytes, stream has %d", w.Bytes(), buf.Len())
	}
	r := NewRunReader(&buf)
	for i, tu := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !tuplesEqual(tu, got) {
			t.Fatalf("row %d: got %s want %s", i, got, tu)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last row: err = %v, want io.EOF", err)
	}
	if r.Rows() != 500 {
		t.Errorf("reader rows = %d", r.Rows())
	}
}

// TestRunReaderLargeRecord exercises the scratch path for records bigger
// than the reader's internal buffer.
func TestRunReaderLargeRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	big := Tuple{Str(string(bytes.Repeat([]byte("x"), 2*runWriterBufSize)))}
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Tuple{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r := NewRunReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(big, got) {
		t.Error("large record did not round trip")
	}
	if got, err := r.Next(); err != nil || !tuplesEqual(got, Tuple{Int(1)}) {
		t.Errorf("record after large one: %s, %v", got, err)
	}
}

// goldenRun builds a small sealed multi-block run (explicit mid-stream
// flushes force several blocks) and returns its bytes plus the rows in it.
func goldenRun(t *testing.T) ([]byte, []Tuple) {
	t.Helper()
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	var want []Tuple
	for i := 0; i < 60; i++ {
		tu := Tuple{Int(int64(i)), Str("golden-row-payload"), Float(float64(i) * 0.5), Bool(i%3 == 0), Null()}
		want = append(want, tu)
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// readAll drains a run, returning the rows or the terminal error.
func readAll(data []byte) ([]Tuple, error) {
	r := NewRunReader(bytes.NewReader(data))
	var rows []Tuple
	for {
		tu, err := r.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, tu)
	}
}

// TestRunTruncationSweep truncates a sealed golden run at every byte offset
// — including clean record and block boundaries, which the pre-footer
// format read back as a silent short run — and asserts each cut is detected
// as corruption.
func TestRunTruncationSweep(t *testing.T) {
	data, _ := goldenRun(t)
	for cut := 0; cut < len(data); cut++ {
		_, err := readAll(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d read back clean", cut, len(data))
		}
		if !errors.Is(err, faults.ErrCorrupt) {
			t.Fatalf("truncation at %d: err %v not classified ErrCorrupt", cut, err)
		}
	}
}

// TestRunBitFlipSweep flips every bit of every byte of a sealed golden run
// and asserts each flip is detected as corruption — no flip may read back
// clean, and none may read back wrong rows or panic.
func TestRunBitFlipSweep(t *testing.T) {
	data, _ := goldenRun(t)
	mut := make([]byte, len(data))
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			copy(mut, data)
			mut[off] ^= 1 << bit
			_, err := readAll(mut)
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped and the run read back clean", bit, off)
			}
			if !errors.Is(err, faults.ErrCorrupt) {
				t.Fatalf("bit %d of byte %d: err %v not classified ErrCorrupt", bit, off, err)
			}
		}
	}
}

// TestRunVerify checks the decode-free integrity pass agrees with a full
// read on both intact and damaged runs.
func TestRunVerify(t *testing.T) {
	data, want := goldenRun(t)
	r := NewRunReader(bytes.NewReader(data))
	if err := r.Verify(); err != nil {
		t.Fatalf("verify of an intact run: %v", err)
	}
	if r.Rows() != int64(len(want)) {
		t.Errorf("verify counted %d rows, want %d", r.Rows(), len(want))
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if err := NewRunReader(bytes.NewReader(bad)).Verify(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("verify of a damaged run: %v, want ErrCorrupt", err)
	}
	if err := NewRunReader(bytes.NewReader(data[:len(data)-1])).Verify(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("verify of a truncated run: %v, want ErrCorrupt", err)
	}
	if err := NewRunReader(bytes.NewReader(append(append([]byte(nil), data...), 0))).Verify(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("verify of a run with trailing bytes: %v, want ErrCorrupt", err)
	}
}

// TestRunUnfinishedReadsCorrupt pins the self-sealing contract: a run that
// was flushed but never sealed with Finish reads back as corrupt — an
// unsealed file is indistinguishable from one that lost its tail.
func TestRunUnfinishedReadsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	if err := w.Append(Tuple{Int(1), Str("abcdef")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(buf.Bytes()); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("unsealed run read back with err %v, want ErrCorrupt", err)
	}
}

// TestRunFinishIdempotent: a second Finish writes nothing.
func TestRunFinishIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	if err := w.Append(Tuple{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Errorf("second Finish grew the stream by %d bytes", buf.Len()-n)
	}
	if err := w.Append(Tuple{Int(2)}); err == nil {
		t.Error("append after Finish succeeded")
	}
}

// shortWriter accepts at most cap bytes, then reports a short write the way
// a full device does.
type shortWriter struct {
	n, cap int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.cap {
		k := w.cap - w.n
		w.n = w.cap
		return k, io.ErrShortWrite
	}
	w.n += len(p)
	return len(p), nil
}

// TestRunWriterShortWrite: a device that cuts a block short surfaces
// io.ErrShortWrite (which storage classifies as disk-full), and the bytes
// counter tracks what actually landed.
func TestRunWriterShortWrite(t *testing.T) {
	w := NewRunWriter(&shortWriter{cap: 64})
	for i := 0; i < 100; i++ {
		if err := w.Append(Tuple{Int(int64(i)), Str("wide enough to overflow the device")}); err != nil {
			if !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("append error %v, want io.ErrShortWrite", err)
			}
			if w.Bytes() != 64 {
				t.Errorf("writer counted %d bytes, device took 64", w.Bytes())
			}
			return
		}
	}
	if err := w.Finish(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("finish error %v, want io.ErrShortWrite", err)
	}
}

// TestRunReaderBoundsDecodeBomb hand-crafts a block whose record claims a
// length beyond MaxRecordBytes: the reader must classify it as corruption
// without allocating the claimed amount.
func TestRunReaderBoundsDecodeBomb(t *testing.T) {
	payload := binary.AppendUvarint(nil, uint64(MaxRecordBytes)+1)
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	buf.Write(hdr[:])
	buf.Write(payload)
	r := NewRunReader(&buf)
	if _, err := r.Next(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("oversized record length: err %v, want ErrCorrupt", err)
	}
	// Same bound on a block header: a corrupt block length cannot OOM.
	binary.LittleEndian.PutUint32(hdr[:4], uint32(maxBlockBytes)+1)
	r = NewRunReader(bytes.NewReader(hdr[:]))
	if _, err := r.Next(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("oversized block length: err %v, want ErrCorrupt", err)
	}
}

// FuzzTupleCodecRoundTrip drives EncodeTuple/DecodeTuple over arbitrary
// tuples spanning every Value kind, checking the round trip is exact and the
// consumed byte count matches the encoding length.
func FuzzTupleCodecRoundTrip(f *testing.F) {
	f.Add(int64(42), 3.14, "seed", true, uint8(7))
	f.Add(int64(math.MinInt64), math.Inf(-1), "", false, uint8(0))
	f.Add(int64(0), math.NaN(), "\x00\xff\xfe", true, uint8(31))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b bool, shape uint8) {
		// shape's bits select which of five values appear, in order.
		all := Tuple{Int(i), Float(fl), Str(s), Bool(b), Null()}
		var tu Tuple
		for k, v := range all {
			if shape&(1<<k) != 0 {
				tu = append(tu, v)
			}
		}
		enc := EncodeTuple(nil, tu)
		got, n, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if !tuplesEqual(tu, got) {
			t.Fatalf("round trip changed tuple: %s -> %s", tu, got)
		}
	})
}

// FuzzDecodeTupleArbitrary feeds arbitrary bytes to the decoder: it must
// error or succeed, never panic or over-read, and the arena decode must agree
// with the heap decode — the same tuple, or both failing ErrCorrupt.
func FuzzDecodeTupleArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTuple(nil, Tuple{Int(1), Str("x"), Bool(true), Null(), Float(2)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tu, n, err := DecodeTuple(data)
		var a Arena
		atu, an, aerr := decodeTuple(data, &a)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("heap decode err %v, arena decode err %v", err, aerr)
		}
		if err != nil && (!errors.Is(err, faults.ErrCorrupt) || !errors.Is(aerr, faults.ErrCorrupt)) {
			t.Fatalf("decode failures not classified ErrCorrupt: heap %v, arena %v", err, aerr)
		}
		if err == nil && (an != n || !tuplesEqual(tu, atu)) {
			t.Fatalf("arena decode %s (%d bytes) differs from heap decode %s (%d bytes)", atu, an, tu, n)
		}
		if err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			reenc := EncodeTuple(nil, tu)
			back, _, err := DecodeTuple(reenc)
			if err != nil || !tuplesEqual(tu, back) {
				t.Fatalf("re-encode of decoded tuple did not round trip: %v", err)
			}
		}
	})
}

// TestRunArenaRowsSurviveFrameReuse: rows decoded into a caller's arena keep
// their values after their run's reader is closed and its pooled frame —
// most likely the very one — has carried another run through a writer and a
// reader. Nothing a decoded row holds may point into a block buffer.
func TestRunArenaRowsSurviveFrameReuse(t *testing.T) {
	var want []Tuple
	for i := 0; i < 300; i++ {
		want = append(want, Tuple{Int(int64(i) * 7), Str(fmt.Sprintf("run-a-%d", i)), Int(-int64(i)), Str("")})
	}
	var bufA bytes.Buffer
	wa := NewRunWriter(&bufA)
	for _, tu := range want {
		if err := wa.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Finish(); err != nil {
		t.Fatal(err)
	}
	var arena Arena
	ra := NewRunReader(&bufA)
	var got []Tuple
	for {
		tu, err := ra.NextIn(&arena)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tu)
	}
	ra.Close()

	var bufB bytes.Buffer
	wb := NewRunWriter(&bufB)
	for i := 0; i < 3000; i++ {
		if err := wb.Append(Tuple{Int(-1), Str(fmt.Sprintf("run-b-overwrites-%d", i)), Int(-2), Str("zzzz")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(bufB.Bytes()); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("run A read back %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !tuplesEqual(got[i], want[i]) {
			t.Fatalf("row %d of run A is %s after run B, want %s", i, got[i], want[i])
		}
	}
}

// TestRunNextAfterClose: a closed reader has handed its frame back, so any
// read after Close fails classified — even on a run already read to its
// verified end, where an io.EOF would pass for a clean, complete run.
func TestRunNextAfterClose(t *testing.T) {
	data, _ := goldenRun(t)
	r := NewRunReader(bytes.NewReader(data))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.Next(); !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("Next after Close: %v, want ErrSpillIO", err)
	}
	if err := r.Verify(); err == nil {
		t.Error("Verify after Close succeeded")
	}

	r = NewRunReader(bytes.NewReader(data))
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := r.NextIn(&Arena{}); !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("NextIn after Close of a drained run: %v, want ErrSpillIO", err)
	}
}
