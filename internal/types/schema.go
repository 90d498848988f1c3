package types

import (
	"fmt"
	"strings"
)

// Field names one column of a schema. Qualifier is the dataset alias the
// column belongs to ("" for anonymous intermediates); Name is the column
// name. The pair must be unique within a schema.
type Field struct {
	Qualifier string
	Name      string
	Kind      Kind
}

// QName returns the qualified column name ("alias.name", or just "name" when
// unqualified).
func (f Field) QName() string {
	if f.Qualifier == "" {
		return f.Name
	}
	return f.Qualifier + "." + f.Name
}

// Schema describes the columns of a tuple stream.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema {
	return &Schema{Fields: fields}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// Index locates a column. It accepts either a bare name or a qualified
// "alias.name". A bare name matches if exactly one column has that name;
// ambiguous bare names report not-found so callers can raise a useful error.
func (s *Schema) Index(name string) (int, bool) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		q, n := name[:i], name[i+1:]
		for idx, f := range s.Fields {
			if f.Qualifier == q && f.Name == n {
				return idx, true
			}
		}
		return -1, false
	}
	found := -1
	for idx, f := range s.Fields {
		if f.Name == name {
			if found >= 0 {
				return -1, false // ambiguous
			}
			found = idx
		}
	}
	if found >= 0 {
		return found, true
	}
	return -1, false
}

// MustIndex is Index that panics on a missing column; used where the planner
// has already validated the reference.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.Index(name)
	if !ok {
		panic(fmt.Sprintf("types: column %q not found in schema %s", name, s))
	}
	return i
}

// HasQualifier reports whether any column carries the given qualifier.
func (s *Schema) HasQualifier(q string) bool {
	for _, f := range s.Fields {
		if f.Qualifier == q {
			return true
		}
	}
	return false
}

// Qualifiers returns the distinct qualifiers in schema order.
func (s *Schema) Qualifiers() []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range s.Fields {
		if !seen[f.Qualifier] {
			seen[f.Qualifier] = true
			out = append(out, f.Qualifier)
		}
	}
	return out
}

// Concat returns a new schema with o's columns appended to s's.
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Fields: make([]Field, 0, len(s.Fields)+len(o.Fields))}
	out.Fields = append(out.Fields, s.Fields...)
	out.Fields = append(out.Fields, o.Fields...)
	return out
}

// Project returns a schema with only the named columns, in the given order.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	out := &Schema{Fields: make([]Field, 0, len(names))}
	idxs := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := s.Index(n)
		if !ok {
			return nil, nil, fmt.Errorf("types: project: column %q not found or ambiguous in %s", n, s)
		}
		out.Fields = append(out.Fields, s.Fields[i])
		idxs = append(idxs, i)
	}
	return out, idxs, nil
}

// Requalify returns a copy of the schema with every column's qualifier
// replaced. Used when an intermediate join result becomes a named dataset
// during query reconstruction.
func (s *Schema) Requalify(q string) *Schema {
	out := &Schema{Fields: make([]Field, len(s.Fields))}
	copy(out.Fields, s.Fields)
	for i := range out.Fields {
		out.Fields[i].Qualifier = q
	}
	return out
}

// String renders the schema as "(a.x int, b.y string)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.QName())
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row: a flat slice of values positionally aligned with a
// Schema.
type Tuple []Value

// EncodedSize sums the encoded sizes of the tuple's values.
func (t Tuple) EncodedSize() int {
	n := 0
	for _, v := range t {
		n += v.EncodedSize()
	}
	return n
}

// EncodedSizeCols is EncodedSize over the listed columns only — what the
// tuple would occupy once narrowed to them; a nil list sizes the whole
// tuple.
//
//dynopt:hotpath
func (t Tuple) EncodedSizeCols(cols []int) int {
	if cols == nil {
		return t.EncodedSize()
	}
	n := 0
	for _, c := range cols {
		n += t[c].EncodedSize()
	}
	return n
}

// Clone returns a copy of the tuple with its own backing array.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns a new tuple of t followed by o.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// String renders the tuple as "[v1, v2, ...]".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}

// hashKeysOffset seeds the composite-key combine of HashKeys (and its
// columnar twin HashColsInto — the two must stay bit-identical, since
// exchange placement and every placement-dependent counter hang off it).
const hashKeysOffset uint64 = 1469598103934665603 // FNV offset basis

// HashKeys hashes the values at the given column offsets, combining them so
// composite join keys (e.g. TPC-DS store_sales ⋈ store_returns on customer,
// item, ticket) partition consistently.
func (t Tuple) HashKeys(idxs []int) uint64 {
	h := hashKeysOffset
	for _, i := range idxs {
		h ^= t[i].Hash()
		h *= 1099511628211 // FNV prime
	}
	return h
}

// HashKeysInto computes HashKeys for every row, writing the results into dst
// (reused when its capacity suffices, else reallocated) and returning it.
// This is the bulk prehash path: exchanges, build tables, probes, and bulk
// loads hash each row exactly once and hand the hashes downstream instead of
// rehashing at every consumer.
func HashKeysInto(rows []Tuple, idxs []int, dst []uint64) []uint64 {
	if cap(dst) < len(rows) {
		dst = make([]uint64, len(rows))
	} else {
		dst = dst[:len(rows)]
	}
	for r, t := range rows {
		dst[r] = t.HashKeys(idxs)
	}
	return dst
}

// HashKeysSelInto is HashKeysInto over the selected rows only: dst is
// aligned with sel (dst[k] hashes rows[sel[k]]), the alignment chunk
// sidecars use when a selection vector is present.
func HashKeysSelInto(rows []Tuple, sel []int32, idxs []int, dst []uint64) []uint64 {
	if cap(dst) < len(sel) {
		dst = make([]uint64, len(sel))
	} else {
		dst = dst[:len(sel)]
	}
	for k, r := range sel {
		dst[k] = rows[r].HashKeys(idxs)
	}
	return dst
}

// KeysEqual reports whether the values of t at ti equal the values of o at
// oi, positionally.
func (t Tuple) KeysEqual(ti []int, o Tuple, oi []int) bool {
	for k := range ti {
		if !t[ti[k]].Equal(o[oi[k]]) {
			return false
		}
	}
	return true
}
