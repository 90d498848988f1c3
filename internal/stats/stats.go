// Package stats implements the statistics collection framework of §4. Every
// collector keeps, per field, a count, a null count, a numeric flag and a
// HyperLogLog sketch (for the distinct counts feeding the join-cardinality
// formula). Base datasets also keep a Greenwald-Khanna quantile sketch per
// field, for the equi-height histograms that price local predicates: they
// are built once, at ingestion (NewIngestStats), and stored with a paged
// dataset's sidecar. Intermediates and pilot samples are collected online
// and merged across partitions, and carry no histogram: the planner reads
// them through record counts, row widths and distinct counts. One local
// predicate can still reach an intermediate. Reconstruction rewrites every
// single-alias predicate onto the join's temp, and the sink collects the
// join keys of the remaining edges, so a numeric predicate on such a key is
// priced by the Selinger default, where a histogram would read the temp as
// already filtered.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dynopt/internal/sketch"
	"dynopt/internal/types"
)

// DefaultGKEpsilon is the rank-error bound used for all quantile sketches.
const DefaultGKEpsilon = 0.005

// FieldStats aggregates the sketches for one field.
type FieldStats struct {
	// Quantiles holds the numeric observations of an ingestion collector (or
	// a decoded sidecar); it is nil for every other collector.
	Quantiles *sketch.GK
	Distinct  *sketch.HLL
	Count     int64 // observations (rows with non-null value)
	Nulls     int64
	// DistinctOverride, when positive, replaces the HLL estimate. Pilot-run
	// sampling uses it to install linearly scaled sample distincts — the
	// very extrapolation that misfires on skewed non-PK/FK keys (§7.2).
	DistinctOverride int64
	numeric          bool
}

// NewFieldStats returns an empty collector for one field, without a
// histogram.
func NewFieldStats() *FieldStats {
	return newFieldStats(false)
}

// newFieldStats returns an empty collector, with a quantile sketch when
// histogram is set.
func newFieldStats(histogram bool) *FieldStats {
	f := &FieldStats{Distinct: sketch.NewHLL(sketch.DefaultHLLPrecision)}
	if histogram {
		f.Quantiles = sketch.NewGK(DefaultGKEpsilon)
	}
	return f
}

// observeWindow is how many values ObserveCol gathers before it hands them
// to the quantile sketch: a fixed stack window, so a column costs no scratch
// however long it is, and the sketch's lock is taken once per window.
const observeWindow = 128

// ObserveCol feeds column c of rows into the field's sketches, in row order
// — the one way a value reaches them. Nulls are counted, every other value is
// hashed into the distinct sketch, and a numeric one sets the numeric flag.
// Each window of rows is walked once, gathering its numeric values; a
// collector with a histogram gives them to the quantile sketch as one batch,
// which flushes exactly where value-at-a-time inserts would, so the summaries
// are byte-identical however the rows were cut into calls. A NaN counts and
// is hashed like any value but has no rank: the quantile sketch skips it.
//
//dynopt:hotpath
func (f *FieldStats) ObserveCol(rows []types.Tuple, c int) {
	var win [observeWindow]float64
	for len(rows) > 0 {
		head := rows[:min(len(rows), observeWindow)]
		rows = rows[len(head):]
		n := 0
		for _, t := range head {
			v := &t[c]
			if v.IsNull() {
				f.Nulls++
				continue
			}
			f.Count++
			f.Distinct.Add(v.Hash())
			if fv, ok := v.AsFloat(); ok {
				win[n] = fv
				n++
			}
		}
		if n > 0 {
			f.numeric = true
			if f.Quantiles != nil {
				f.Quantiles.InsertBatch(win[:n])
			}
		}
	}
}

// DistinctCount returns the estimated number of distinct non-null values.
func (f *FieldStats) DistinctCount() int64 {
	if f.DistinctOverride > 0 {
		return f.DistinctOverride
	}
	d := f.Distinct.Estimate()
	if d < 1 && f.Count > 0 {
		d = 1
	}
	return d
}

// Numeric reports whether the field carried numeric observations.
func (f *FieldStats) Numeric() bool { return f.numeric }

// Merge folds other's counts, numeric flag and distinct sketch into f
// (partition-parallel collection). Histograms are never merged: only
// ingestion builds one, over the whole input in one stream.
func (f *FieldStats) Merge(other *FieldStats) {
	if other == nil {
		return
	}
	f.Count += other.Count
	f.Nulls += other.Nulls
	f.numeric = f.numeric || other.numeric
	f.Distinct.Merge(other.Distinct)
}

// DatasetStats summarizes one dataset (base or intermediate).
type DatasetStats struct {
	Name        string
	RecordCount int64
	ByteSize    int64
	Fields      map[string]*FieldStats // keyed by bare field name
	histograms  bool                   // Field creates collectors with a quantile sketch
}

// NewDatasetStats returns an empty summary for a named dataset whose
// collectors build no histogram: intermediates, pilot samples.
func NewDatasetStats(name string) *DatasetStats {
	return &DatasetStats{Name: name, Fields: map[string]*FieldStats{}}
}

// NewIngestStats returns an empty summary for a base dataset at ingestion:
// its collectors also build the quantile sketch that StaticSelectivity
// reads. It is the one place a histogram is built.
func NewIngestStats(name string) *DatasetStats {
	d := NewDatasetStats(name)
	d.histograms = true
	return d
}

// Field returns (creating if absent) the collector for a field.
func (d *DatasetStats) Field(name string) *FieldStats {
	fs, ok := d.Fields[name]
	if !ok {
		fs = newFieldStats(d.histograms)
		d.Fields[name] = fs
	}
	return fs
}

// ObserveTuple feeds a whole tuple through the per-field collectors,
// restricted to the supplied fields (nil means all fields of the schema).
// It also accumulates record count and encoded byte size. It is ObserveRows
// over one row, for callers that meet their rows one at a time.
func (d *DatasetStats) ObserveTuple(sch *types.Schema, t types.Tuple, only map[string]bool) {
	one := [1]types.Tuple{t}
	d.RecordCount++
	d.ByteSize += int64(t.EncodedSize())
	d.ObserveRows(sch, one[:], only)
}

// ObserveRows feeds rows through the per-field collectors a column at a
// time — each collector resolved once, each seeing its values in row order —
// restricted to the supplied fields (nil means all fields of the schema).
// RecordCount and ByteSize are the caller's: bulk loads and samplers have
// sized their rows already.
func (d *DatasetStats) ObserveRows(sch *types.Schema, rows []types.Tuple, only map[string]bool) {
	if len(rows) == 0 {
		return // a collector exists once its field has met a row
	}
	for i, f := range sch.Fields {
		if only != nil && !only[f.Name] {
			continue
		}
		d.Field(f.Name).ObserveCol(rows, i)
	}
}

// Merge folds other's counters and field sketches into d.
func (d *DatasetStats) Merge(other *DatasetStats) {
	if other == nil {
		return
	}
	d.RecordCount += other.RecordCount
	d.ByteSize += other.ByteSize
	for name, fs := range other.Fields {
		d.Field(name).Merge(fs)
	}
}

// AvgRowBytes returns the mean encoded row width (>=1).
func (d *DatasetStats) AvgRowBytes() int64 {
	if d.RecordCount == 0 {
		return 1
	}
	w := d.ByteSize / d.RecordCount
	if w < 1 {
		w = 1
	}
	return w
}

// String renders the summary for debugging / EXPERIMENTS.md dumps.
func (d *DatasetStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: rows=%d bytes=%d", d.Name, d.RecordCount, d.ByteSize)
	names := make([]string, 0, len(d.Fields))
	for n := range d.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fs := d.Fields[n]
		fmt.Fprintf(&b, "\n  %s: count=%d distinct=%d nulls=%d", n, fs.Count, fs.DistinctCount(), fs.Nulls)
	}
	return b.String()
}

// Registry is the thread-safe catalog of dataset statistics shared by the
// ingestion path, the online-statistics sinks, and the planners.
type Registry struct {
	mu   sync.RWMutex
	sets map[string]*DatasetStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: map[string]*DatasetStats{}}
}

// Put installs (replacing) the statistics for a dataset.
func (r *Registry) Put(d *DatasetStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sets[d.Name] = d
}

// Get returns the statistics for a dataset, or nil when unknown.
func (r *Registry) Get(name string) *DatasetStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sets[name]
}

// Drop removes a dataset's statistics (temp cleanup).
func (r *Registry) Drop(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sets, name)
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sets))
	for n := range r.sets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a registry sharing the same (immutable once published)
// DatasetStats pointers. Strategies that overwrite stats (pilot runs) should
// Put fresh DatasetStats rather than mutate shared ones.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	for n, d := range r.sets {
		out.sets[n] = d
	}
	return out
}
