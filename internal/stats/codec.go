package stats

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dynopt/internal/sketch"
)

// Binary codec for DatasetStats — the statistics sidecar of a paged dataset.
// Ingestion-time sketches are serialized at conversion and registered
// verbatim on paged open, so the planner sees byte-identical statistics (and
// produces identical plans and counters) whether a dataset is resident or
// paged. Field order is sorted for deterministic output.

const statsMaxFields = 1 << 16

// noHistogram is what Encode writes for a field that keeps no quantile
// sketch: an empty one, so the format has one shape.
var noHistogram = sketch.NewGK(DefaultGKEpsilon)

// Encode appends the dataset statistics to dst.
func (d *DatasetStats) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Name)))
	dst = append(dst, d.Name...)
	dst = binary.AppendUvarint(dst, uint64(d.RecordCount))
	dst = binary.AppendUvarint(dst, uint64(d.ByteSize))
	names := make([]string, 0, len(d.Fields))
	for n := range d.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		fs := d.Fields[n]
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
		dst = binary.AppendUvarint(dst, uint64(fs.Count))
		dst = binary.AppendUvarint(dst, uint64(fs.Nulls))
		dst = binary.AppendUvarint(dst, uint64(fs.DistinctOverride))
		numeric := byte(0)
		if fs.numeric {
			numeric = 1
		}
		dst = append(dst, numeric)
		q := fs.Quantiles
		if q == nil {
			q = noHistogram
		}
		dst = q.Encode(dst)
		dst = fs.Distinct.Encode(dst)
	}
	return dst
}

// DecodeDatasetStats decodes statistics encoded by Encode from the front of
// src, returning the stats and the bytes consumed. Every field gets back the
// quantile sketch it was stored with.
func DecodeDatasetStats(src []byte) (*DatasetStats, int, error) {
	name, off, err := decodeString(src, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("stats: dataset name: %w", err)
	}
	d := NewIngestStats(name)
	rc, m := binary.Uvarint(src[off:])
	if m <= 0 {
		return nil, 0, fmt.Errorf("stats: bad record count")
	}
	off += m
	bs, m := binary.Uvarint(src[off:])
	if m <= 0 {
		return nil, 0, fmt.Errorf("stats: bad byte size")
	}
	off += m
	d.RecordCount, d.ByteSize = int64(rc), int64(bs)
	nf, m := binary.Uvarint(src[off:])
	if m <= 0 || nf > statsMaxFields {
		return nil, 0, fmt.Errorf("stats: bad field count %d", nf)
	}
	off += m
	for i := uint64(0); i < nf; i++ {
		fname, n, err := decodeString(src, off)
		if err != nil {
			return nil, 0, fmt.Errorf("stats: field %d name: %w", i, err)
		}
		off = n
		fs := &FieldStats{}
		cnt, m := binary.Uvarint(src[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("stats: field %q count", fname)
		}
		off += m
		nulls, m := binary.Uvarint(src[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("stats: field %q nulls", fname)
		}
		off += m
		ovr, m := binary.Uvarint(src[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("stats: field %q override", fname)
		}
		off += m
		if off >= len(src) {
			return nil, 0, fmt.Errorf("stats: field %q truncated numeric flag", fname)
		}
		fs.Count, fs.Nulls, fs.DistinctOverride = int64(cnt), int64(nulls), int64(ovr)
		fs.numeric = src[off] == 1
		off++
		gk, n2, err := sketch.DecodeGK(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("stats: field %q quantiles: %w", fname, err)
		}
		off += n2
		hll, n3, err := sketch.DecodeHLL(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("stats: field %q distincts: %w", fname, err)
		}
		off += n3
		fs.Quantiles, fs.Distinct = gk, hll
		d.Fields[fname] = fs
	}
	return d, off, nil
}

func decodeString(src []byte, off int) (string, int, error) {
	n, m := binary.Uvarint(src[off:])
	if m <= 0 || n > uint64(len(src)-off-m) {
		return "", 0, fmt.Errorf("bad string length")
	}
	off += m
	return string(src[off : off+int(n)]), off + int(n), nil
}
