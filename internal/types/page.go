package types

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Columnar page codec backing the disk-native dataset store. A page holds a
// window of rows from one partition, encoded column-chunked so a reader can
// decode exactly the columns a scan needs and skip the rest without touching
// their bytes (projection pushdown at the storage layer). Pages ride inside
// PageFile frames using the same len|crc block discipline as the run-file
// codec, so every at-rest damage mode — bit flip, truncated tail, torn write
// — fails a checksum instead of decoding into wrong rows.
//
// Page payload layout:
//
//	page    = uvarint nrows | uvarint ncols | column*
//	column  = uvarint encLen | colenc                (encLen bytes follow)
//	colenc  = typed | fallback
//	typed   = 0x00 | kind byte | nullFlag byte | nullBitmap? | payload
//	fallback= 0x01 | value*                          (one tagged value per row)
//
// Typed payloads are dense per-kind arrays aligned with the page's rows
// (int/float: 8 little-endian bytes each, NULL slots zeroed; bool: one byte;
// string: uvarint length + bytes, NULL slots zero-length), with NULLs carried
// in the optional bitmap. A column whose values disagree with the schema kind
// — or a kind with no dense form — falls back to per-value tag encoding, the
// same shape EncodeTuple uses, and decodes to row-form values.
//
// Zone-map statistics (per-column min/max over non-NULL values under
// Value.Compare, plus the NULL count) are computed during encoding and stored
// by the page directory, not in the page payload: pruning consults them
// before any page byte is read.

// MaxPageRows bounds one page's row count; the decoder classifies larger
// stored counts as corruption instead of allocating attacker-controlled
// amounts.
const MaxPageRows = 1 << 20

const (
	pageColTyped    = 0x00
	pageColFallback = 0x01
)

// CRC32C returns the Castagnoli CRC of b — the checksum both the run-file
// and page-file frames use, exported so the storage layer frames pages with
// the identical discipline.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// CRC32CUpdate extends a running Castagnoli CRC with b — the incremental
// form backing a page file's whole-file checksum.
func CRC32CUpdate(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// PageColStats is one column's zone-map entry: min/max over the page's
// non-NULL values (ordered by Value.Compare, so pruning and predicate
// evaluation agree exactly) and the NULL count. HasMinMax is false when the
// column held no non-NULL values.
type PageColStats struct {
	Min, Max  Value
	HasMinMax bool
	Nulls     int64
}

// EncodePage appends the page encoding of rows (all full schema width) to
// dst, returning the extended slice and the per-column zone-map stats. An
// empty rows slice encodes a valid empty page.
func EncodePage(dst []byte, schema *Schema, rows []Tuple) ([]byte, []PageColStats) {
	ncols := schema.Len()
	st := make([]PageColStats, ncols)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(ncols))
	var scratch []byte
	for c := 0; c < ncols; c++ {
		scratch = encodePageCol(scratch[:0], schema.Fields[c].Kind, rows, c, &st[c])
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	return dst, st
}

// encodePageCol encodes column c of rows, filling its zone-map stats.
func encodePageCol(dst []byte, want Kind, rows []Tuple, c int, st *PageColStats) []byte {
	// One stats pass decides the encoding (typed iff every non-NULL value
	// matches the schema kind and the kind has a dense form) and computes the
	// zone map over all non-NULL values, whichever encoding is taken.
	typed := want == KindInt || want == KindFloat || want == KindString || want == KindBool
	nulls := 0
	for r := range rows {
		v := &rows[r][c]
		if v.K == KindNull {
			nulls++
			continue
		}
		if v.K != want {
			typed = false
		}
		if !st.HasMinMax {
			st.Min, st.Max, st.HasMinMax = *v, *v, true
		} else {
			if v.Compare(st.Min) < 0 {
				st.Min = *v
			}
			if v.Compare(st.Max) > 0 {
				st.Max = *v
			}
		}
	}
	st.Nulls = int64(nulls)
	if !typed {
		dst = append(dst, pageColFallback)
		for r := range rows {
			dst = AppendValue(dst, rows[r][c])
		}
		return dst
	}
	dst = append(dst, pageColTyped, byte(want))
	if nulls == 0 {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		bm := make([]byte, (len(rows)+7)/8)
		for r := range rows {
			if rows[r][c].K == KindNull {
				bm[r>>3] |= 1 << (r & 7)
			}
		}
		dst = append(dst, bm...)
	}
	switch want {
	case KindInt, KindFloat:
		//dynopt:hotpath
		for r := range rows {
			dst = binary.LittleEndian.AppendUint64(dst, rows[r][c].num)
		}
	case KindString:
		//dynopt:hotpath
		for r := range rows {
			s := rows[r][c].S
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	case KindBool:
		//dynopt:hotpath
		for r := range rows {
			b := byte(0)
			if rows[r][c].B {
				b = 1
			}
			dst = append(dst, b)
		}
	}
	return dst
}

// AppendValue encodes one tagged value — the fallback per-value form,
// identical in shape to EncodeTuple's element encoding. The page directory
// also uses it for zone-map min/max values and persistent index keys.
func AppendValue(dst []byte, v Value) []byte {
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
		dst = append(dst, byte(KindNull))
	}
	return dst
}

// valueSpan validates the tagged value at the head of src without building
// it: the value's kind, its payload bytes src[lo:hi], and hi as the encoded
// length. Malformed input is classified faults.ErrCorrupt.
func valueSpan(src []byte) (k Kind, lo, hi int, err error) {
	if len(src) == 0 {
		return 0, 0, 0, corruptf("page value: truncated tag")
	}
	k = Kind(src[0])
	switch k {
	case KindNull:
		return k, 1, 1, nil
	case KindInt, KindFloat:
		if 1+8 > len(src) {
			return 0, 0, 0, corruptf("page value: truncated %v payload", k)
		}
		return k, 1, 9, nil
	case KindString:
		sl, m := binary.Uvarint(src[1:])
		if m <= 0 || sl > MaxRecordBytes {
			return 0, 0, 0, corruptf("page value: string length %d out of bounds", sl)
		}
		if uint64(len(src)-1-m) < sl {
			return 0, 0, 0, corruptf("page value: truncated string payload")
		}
		return k, 1 + m, 1 + m + int(sl), nil
	case KindBool:
		if len(src) < 2 {
			return 0, 0, 0, corruptf("page value: truncated bool payload")
		}
		return k, 1, 2, nil
	default:
		return 0, 0, 0, corruptf("page value: unknown kind tag %d", k)
	}
}

// DecodeValue decodes one tagged value from src, returning the value and
// bytes consumed. Malformed input is classified faults.ErrCorrupt.
func DecodeValue(src []byte) (Value, int, error) {
	k, lo, hi, err := valueSpan(src)
	if err != nil {
		return Value{}, 0, err
	}
	switch k {
	case KindInt, KindFloat:
		return Value{K: k, num: binary.LittleEndian.Uint64(src[lo:])}, hi, nil
	case KindString:
		return Value{K: KindString, S: string(src[lo:hi])}, hi, nil
	case KindBool:
		return Value{K: KindBool, B: src[lo] != 0}, hi, nil
	}
	return Value{}, hi, nil
}

// PageCol is one decoded page column. Exactly one of three states holds:
// Skipped (the scan did not need the column; no bytes were decoded), typed
// (Vec holds the dense form), or Fallback (Vals holds row-form values —
// mixed-kind columns and bools, which have no dense vector consumers).
type PageCol struct {
	Vec      ColVec
	Vals     []Value
	Fallback bool
	Skipped  bool
}

// PageData is one decoded page: per-column decoded state aligned with the
// page's rows. Buffers are reused across Decode calls on the same PageData.
type PageData struct {
	NRows int
	Cols  []PageCol
}

// Value returns row r of column c (NULL for skipped columns).
func (pd *PageData) Value(c, r int) Value {
	col := &pd.Cols[c]
	if col.Skipped {
		return Value{}
	}
	if col.Fallback {
		return col.Vals[r]
	}
	return col.Vec.ValueAt(r)
}

// Tuple materializes row r as a freshly allocated full-width tuple.
func (pd *PageData) Tuple(r int) Tuple {
	t := make(Tuple, len(pd.Cols))
	for c := range pd.Cols {
		t[c] = pd.Value(c, r)
	}
	return t
}

// ValueAt reconstructs row r of a decoded typed vector as a Value.
func (v *ColVec) ValueAt(r int) Value {
	if v.Null != nil && v.Null[r] {
		return Value{}
	}
	switch v.Kind {
	case KindInt:
		return Value{K: KindInt, num: uint64(v.Ints[r])}
	case KindFloat:
		return Value{K: KindFloat, num: math.Float64bits(v.Floats[r])}
	case KindString:
		return Value{K: KindString, S: v.Strs[r]}
	default:
		return Value{}
	}
}

// DecodePage decodes a page payload into pd. need[i] == false skips column i
// entirely — its bytes are jumped over, nothing is allocated or decoded (the
// storage face of projection pushdown); a nil need decodes every column. The
// schema must be the one the page was encoded with; any disagreement, bound
// violation, or truncation is classified faults.ErrCorrupt.
func (pd *PageData) DecodePage(payload []byte, schema *Schema, need []bool) error {
	nrows, off, err := pageHeader(payload, schema)
	if err != nil {
		return err
	}
	ncols := schema.Len()
	pd.NRows = nrows
	if cap(pd.Cols) < ncols {
		pd.Cols = make([]PageCol, ncols)
	}
	pd.Cols = pd.Cols[:ncols]
	for c := range pd.Cols {
		var enc []byte
		enc, off, err = pageColumn(payload, off, c)
		if err != nil {
			return err
		}
		col := &pd.Cols[c]
		if need != nil && !need[c] {
			col.Skipped, col.Fallback = true, false
			continue
		}
		if err := col.decode(enc, schema.Fields[c].Kind, nrows); err != nil {
			return err
		}
	}
	if off != len(payload) {
		return corruptf("page: %d trailing bytes", len(payload)-off)
	}
	return nil
}

// PageRows returns the row count a page payload declares, without decoding
// anything else.
func PageRows(payload []byte) (int, error) {
	n, _, err := pageRowCount(payload)
	return n, err
}

// pageRowCount parses the leading row count, returning it and its length.
func pageRowCount(payload []byte) (nrows, off int, err error) {
	n, m := binary.Uvarint(payload)
	if m <= 0 || n > MaxPageRows {
		return 0, 0, corruptf("page: bad row count")
	}
	return int(n), m, nil
}

// pageHeader parses a page payload's row and column counts against schema,
// returning the row count and the offset of the first column.
func pageHeader(payload []byte, schema *Schema) (nrows, off int, err error) {
	nrows, off, err = pageRowCount(payload)
	if err != nil {
		return 0, 0, err
	}
	ncols, m := binary.Uvarint(payload[off:])
	if m <= 0 || ncols != uint64(schema.Len()) {
		return 0, 0, corruptf("page: column count %d disagrees with schema width %d", ncols, schema.Len())
	}
	return nrows, off + m, nil
}

// pageColumn returns column c's encoding, which starts at payload[off], and
// the offset of the column after it.
func pageColumn(payload []byte, off, c int) (enc []byte, next int, err error) {
	encLen, m := binary.Uvarint(payload[off:])
	if m <= 0 || encLen > uint64(len(payload)-off-m) {
		return nil, 0, corruptf("page: column %d length %d exceeds payload", c, encLen)
	}
	off += m
	return payload[off : off+int(encLen)], off + int(encLen), nil
}

// typedColumn parses a typed column encoding (tag already stripped) for
// nrows rows: the stored kind must equal want. It returns the NULL bitmap
// (nil when the column holds no NULLs) and the dense payload.
func typedColumn(enc []byte, want Kind, nrows int) (bitmap, payload []byte, err error) {
	if len(enc) < 2 {
		return nil, nil, corruptf("page column: truncated typed header")
	}
	if kind := Kind(enc[0]); kind != want {
		return nil, nil, corruptf("page column: stored kind %v disagrees with schema kind %v", kind, want)
	}
	nullFlag := enc[1]
	enc = enc[2:]
	if nullFlag == 1 {
		bn := (nrows + 7) / 8
		if len(enc) < bn {
			return nil, nil, corruptf("page column: truncated null bitmap")
		}
		return enc[:bn], enc[bn:], nil
	}
	if nullFlag != 0 {
		return nil, nil, corruptf("page column: bad null flag %d", nullFlag)
	}
	return nil, enc, nil
}

// decode fills one column from its encoding.
func (col *PageCol) decode(enc []byte, want Kind, nrows int) error {
	col.Skipped = false
	if len(enc) == 0 {
		return corruptf("page column: empty encoding")
	}
	tag := enc[0]
	enc = enc[1:]
	if tag == pageColFallback {
		col.Fallback = true
		if cap(col.Vals) < nrows {
			col.Vals = make([]Value, nrows)
		}
		col.Vals = col.Vals[:nrows]
		off := 0
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			v, n, err := DecodeValue(enc[off:])
			if err != nil {
				return err
			}
			col.Vals[r] = v
			off += n
		}
		if off != len(enc) {
			return corruptf("page column: %d trailing fallback bytes", len(enc)-off)
		}
		return nil
	}
	if tag != pageColTyped {
		return corruptf("page column: bad encoding tag %d", tag)
	}
	bitmap, enc, err := typedColumn(enc, want, nrows)
	if err != nil {
		return err
	}
	if want == KindBool {
		// Bools have no dense vector consumers (Gather treats them as Mixed);
		// decode straight to row-form values.
		col.Fallback = true
		if len(enc) != nrows {
			return corruptf("page column: bool payload of %d bytes for %d rows", len(enc), nrows)
		}
		if cap(col.Vals) < nrows {
			col.Vals = make([]Value, nrows)
		}
		col.Vals = col.Vals[:nrows]
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			if bitmap != nil && bitmap[r>>3]&(1<<(r&7)) != 0 {
				col.Vals[r] = Value{}
			} else {
				col.Vals[r] = Value{K: KindBool, B: enc[r] != 0}
			}
		}
		return nil
	}
	col.Fallback = false
	v := &col.Vec
	v.Kind = want
	v.Mixed = false
	if cap(v.Null) < nrows {
		v.Null = make([]bool, nrows)
	}
	v.Null = v.Null[:nrows]
	nulls := v.Null
	if bitmap == nil {
		//dynopt:hotpath
		for r := range nulls {
			nulls[r] = false
		}
	} else {
		//dynopt:hotpath
		for r := range nulls {
			nulls[r] = bitmap[r>>3]&(1<<(r&7)) != 0
		}
	}
	switch want {
	case KindInt:
		if len(enc) != nrows*8 {
			return corruptf("page column: int payload of %d bytes for %d rows", len(enc), nrows)
		}
		if cap(v.Ints) < nrows {
			v.Ints = make([]int64, nrows)
		}
		v.Ints = v.Ints[:nrows]
		ints := v.Ints
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			ints[r] = int64(binary.LittleEndian.Uint64(enc[r*8:]))
		}
	case KindFloat:
		if len(enc) != nrows*8 {
			return corruptf("page column: float payload of %d bytes for %d rows", len(enc), nrows)
		}
		if cap(v.Floats) < nrows {
			v.Floats = make([]float64, nrows)
		}
		v.Floats = v.Floats[:nrows]
		floats := v.Floats
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			floats[r] = math.Float64frombits(binary.LittleEndian.Uint64(enc[r*8:]))
		}
	case KindString:
		if cap(v.Strs) < nrows {
			v.Strs = make([]string, nrows)
		}
		v.Strs = v.Strs[:nrows]
		strs := v.Strs
		off := 0
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			sl, m := binary.Uvarint(enc[off:])
			if m <= 0 || sl > MaxRecordBytes {
				//dynopt:alloc-ok corruption error path, never taken on intact pages
				return corruptf("page column: string length %d out of bounds", sl)
			}
			if uint64(len(enc)-off-m) < sl {
				return corruptf("page column: truncated string payload")
			}
			off += m
			strs[r] = string(enc[off : off+int(sl)]) //dynopt:alloc-ok string payloads must not alias the page buffer, which is recycled by the cache
			off += int(sl)
		}
		if off != len(enc) {
			return corruptf("page column: %d trailing string bytes", len(enc)-off)
		}
	default:
		return corruptf("page column: kind %v has no typed decoder", want)
	}
	return nil
}

// MaterializePageRows builds arena-backed tuples for exactly the rows sel
// names (strictly ascending row indexes into the page), straight from the
// page payload: no row the caller did not select is ever built, and no
// column outside cols is decoded. Output tuple k has width len(cols) with
// element j holding column cols[j] of row sel[k]; a nil cols selects every
// column in schema order. The tuples are appended to dst.
//
// Fixed-width columns (int, float, bool) are read by direct offset; string
// and fallback columns walk every row's length prefix — there is no other
// way to find row r — but allocate only the selected values. Every column
// in cols gets the bounds checks DecodePage applies to a decoded column, so
// damage is classified faults.ErrCorrupt; a sel that is not strictly
// ascending within the page is a caller bug and reports a plain error.
func MaterializePageRows(payload []byte, schema *Schema, cols []int, sel []int32, arena *Arena, dst []Tuple) ([]Tuple, error) {
	nrows, off, err := pageHeader(payload, schema)
	if err != nil {
		return dst, err
	}
	prev := int32(-1)
	for _, r := range sel {
		if r <= prev || int(r) >= nrows {
			return dst, fmt.Errorf("types: page row selection %d not strictly ascending within %d rows", r, nrows)
		}
		prev = r
	}
	ncols := schema.Len()
	width := len(cols)
	if cols == nil {
		width = ncols
	}
	base := len(dst)
	for range sel {
		dst = append(dst, arena.Make(width))
	}
	out := dst[base:]
	for c := 0; c < ncols; c++ {
		var enc []byte
		enc, off, err = pageColumn(payload, off, c)
		if err != nil {
			return dst[:base], err
		}
		// first is the output position the column decodes into (-1: not
		// selected); a projection naming the column again copies from there.
		first := c
		if cols != nil {
			first = slices.Index(cols, c)
		}
		if first < 0 {
			continue
		}
		if err := materializeCol(enc, schema.Fields[c].Kind, nrows, sel, out, first); err != nil {
			return dst[:base], err
		}
		if cols != nil {
			for j := first + 1; j < len(cols); j++ {
				if cols[j] == c {
					for _, t := range out {
						t[j] = t[first]
					}
				}
			}
		}
	}
	if off != len(payload) {
		return dst[:base], corruptf("page: %d trailing bytes", len(payload)-off)
	}
	return dst, nil
}

// nullAt reports row r's bit in a column's NULL bitmap (nil: no NULLs).
func nullAt(bitmap []byte, r int32) bool {
	return bitmap != nil && bitmap[r>>3]&(1<<(r&7)) != 0
}

// materializeCol writes one column's selected rows into element j of the
// output tuples (out[k] receives row sel[k]), validating the whole column
// encoding exactly as PageCol.decode does.
func materializeCol(enc []byte, want Kind, nrows int, sel []int32, out []Tuple, j int) error {
	if len(enc) == 0 {
		return corruptf("page column: empty encoding")
	}
	tag := enc[0]
	enc = enc[1:]
	if tag == pageColFallback {
		off, k := 0, 0
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			if k < len(sel) && int(sel[k]) == r {
				v, n, err := DecodeValue(enc[off:])
				if err != nil {
					return err
				}
				out[k][j] = v
				k++
				off += n
				continue
			}
			_, _, n, err := valueSpan(enc[off:])
			if err != nil {
				return err
			}
			off += n
		}
		if off != len(enc) {
			return corruptf("page column: %d trailing fallback bytes", len(enc)-off)
		}
		return nil
	}
	if tag != pageColTyped {
		return corruptf("page column: bad encoding tag %d", tag)
	}
	bitmap, enc, err := typedColumn(enc, want, nrows)
	if err != nil {
		return err
	}
	switch want {
	case KindInt, KindFloat:
		if len(enc) != nrows*8 {
			return corruptf("page column: %v payload of %d bytes for %d rows", want, len(enc), nrows)
		}
		//dynopt:hotpath
		for k, r := range sel {
			if nullAt(bitmap, r) {
				out[k][j] = Value{}
			} else {
				out[k][j] = Value{K: want, num: binary.LittleEndian.Uint64(enc[int(r)*8:])}
			}
		}
	case KindBool:
		if len(enc) != nrows {
			return corruptf("page column: bool payload of %d bytes for %d rows", len(enc), nrows)
		}
		//dynopt:hotpath
		for k, r := range sel {
			if nullAt(bitmap, r) {
				out[k][j] = Value{}
			} else {
				out[k][j] = Value{K: KindBool, B: enc[r] != 0}
			}
		}
	case KindString:
		off, k := 0, 0
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			sl, m := binary.Uvarint(enc[off:])
			if m <= 0 || sl > MaxRecordBytes {
				//dynopt:alloc-ok corruption error path, never taken on intact pages
				return corruptf("page column: string length %d out of bounds", sl)
			}
			if uint64(len(enc)-off-m) < sl {
				return corruptf("page column: truncated string payload")
			}
			off += m
			if k < len(sel) && int(sel[k]) == r {
				if nullAt(bitmap, sel[k]) {
					out[k][j] = Value{}
				} else {
					out[k][j] = Value{K: KindString, S: string(enc[off : off+int(sl)])} //dynopt:alloc-ok selected string payloads must not alias the cached page buffer
				}
				k++
			}
			off += int(sl)
		}
		if off != len(enc) {
			return corruptf("page column: %d trailing string bytes", len(enc)-off)
		}
	default:
		return corruptf("page column: kind %v has no typed decoder", want)
	}
	return nil
}
