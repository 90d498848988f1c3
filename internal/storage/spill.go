package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"dynopt/internal/faults"
	"dynopt/internal/types"
)

// classifySpill wraps a spill I/O failure with its taxonomy class: ENOSPC
// and short writes become faults.ErrDiskFull (which itself wraps ErrSpillIO,
// so the spill degradation ladder still applies), everything else plain
// ErrSpillIO. Injected errors flow through the same classification — a rule
// armed with Err: syscall.ENOSPC exercises the disk-full path end to end.
func classifySpill(op string, err error) error {
	class := faults.ErrSpillIO
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, io.ErrShortWrite) {
		class = faults.ErrDiskFull
	}
	return fmt.Errorf("storage: %s: %w: %w", op, class, err)
}

// SpillManager owns one query's run files: the on-disk overflow partitions
// of the dynamic hybrid hash join. It mirrors the catalog's per-query temp
// namespace — a directory created lazily on the first spill, uniquely named
// under the configured spill root, and swept on every query exit path (the
// disk counterpart of catalog.DropPrefix). A query that never spills never
// touches the filesystem.
//
// Create is safe to call from concurrent partition goroutines; each returned
// SpillFile is then owned by a single goroutine.
type SpillManager struct {
	root  string
	scope string

	// Faults is the query's fault-injection registry (nil in production).
	// Spill I/O is the layer most worth injecting into: it is the only part
	// of query execution that touches a device that can genuinely fail
	// mid-query. All injected and real I/O errors surface wrapped in
	// faults.ErrSpillIO so the join can degrade and the server can retry.
	Faults *faults.Registry

	// Sync makes Finish fsync each sealed run (Config.SpillSync): the
	// durability knob for spill devices with volatile write caches, off by
	// default because run files never outlive their query.
	Sync bool

	mu      sync.Mutex
	dir     string // created lazily by the first Create
	seq     int
	open    map[*SpillFile]struct{} // files whose descriptor is open: unfinished or sealed, not yet removed
	written int64                   // actual bytes on disk across finished files
}

// NewSpillManager returns a manager writing under root for one query scope
// (e.g. "q12_"). Nothing is created until the first spill.
func NewSpillManager(root, scope string) *SpillManager {
	return &SpillManager{root: root, scope: scope, open: map[*SpillFile]struct{}{}}
}

// Dir returns the query's spill directory, or "" when nothing spilled yet.
func (m *SpillManager) Dir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// BytesWritten returns the actual on-disk bytes (from os.Stat, framing
// included) across all finished run files, including ones already removed.
func (m *SpillManager) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// Create opens a fresh append-only run file. label names the file for
// debugging (partition/level/sub-partition of the join that spilled it).
// The file is opened once, read-write: the writer appends through the
// descriptor, and Verify and every read-back pread the sealed run through the
// same descriptor until Remove or Sweep closes it.
func (m *SpillManager) Create(label string) (*SpillFile, error) {
	if err := m.Faults.Fire(faults.Point("spill.create")); err != nil {
		return nil, classifySpill(fmt.Sprintf("spill file %q", label), err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dir == "" {
		if err := os.MkdirAll(m.root, 0o755); err != nil {
			return nil, classifySpill("spill root", err)
		}
		dir, err := os.MkdirTemp(m.root, "spill_"+m.scope)
		if err != nil {
			return nil, classifySpill("spill dir", err)
		}
		m.dir = dir
	}
	m.seq++
	path := filepath.Join(m.dir, fmt.Sprintf("run%04d_%s", m.seq, label))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return nil, classifySpill("spill file", err)
	}
	sf := &SpillFile{m: m, path: path, f: f, w: types.NewRunWriter(f)}
	m.open[sf] = struct{}{}
	return sf, nil
}

// Sweep removes the query's spill directory and everything in it, closing
// the descriptor of every run not yet removed: one a failed join left
// unfinished, or a sealed run nobody removed. Safe to call when nothing
// spilled, and on every exit path (success, error, panic, cancellation).
func (m *SpillManager) Sweep() error {
	m.mu.Lock()
	open := make([]*SpillFile, 0, len(m.open))
	for sf := range m.open {
		open = append(open, sf)
	}
	dir := m.dir
	m.dir = ""
	m.mu.Unlock()
	for _, sf := range open {
		// Error discarded: these are force-closed, some mid-write during an
		// abort sweep, and RemoveAll below deletes their directory regardless.
		_ = sf.close()
	}
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// SpillFile is one append-only run file: written once by its owning
// partition goroutine, sealed with Finish, read back with Reader, removed
// when its sub-join completes. It holds one descriptor from Create to Remove
// (or Sweep): Verify and read-back do not open the file again.
type SpillFile struct {
	m     *SpillManager
	path  string
	f     *os.File // nil once closed
	w     *types.RunWriter
	bytes int64 // on-disk size, set by Finish
}

// Append writes one tuple to the run.
func (s *SpillFile) Append(t types.Tuple) error {
	if err := s.m.Faults.Fire(faults.Point("spill.append")); err != nil {
		return classifySpill("spill append", err)
	}
	if err := s.w.Append(t); err != nil {
		return classifySpill("spill append", err)
	}
	return nil
}

// Rows returns the number of tuples appended so far.
func (s *SpillFile) Rows() int64 { return s.w.Rows() }

// Finish flushes the last block and seals the run with its checksummed
// footer (fsyncing it when the manager's Sync knob is set), returning the
// file's actual on-disk byte size — the figure spill accounting charges. The
// descriptor stays open for Verify and read-back; a failed Finish closes it.
func (s *SpillFile) Finish() (int64, error) {
	if err := s.m.Faults.Fire(faults.Point("spill.finish")); err != nil {
		_ = s.close()
		return 0, classifySpill("spill finish", err)
	}
	if err := s.w.Finish(); err != nil {
		_ = s.close() // already failing; the seal error is the one to report
		return 0, classifySpill("spill seal", err)
	}
	if s.m.Sync {
		if err := s.m.Faults.Fire(faults.Point("spill.sync")); err != nil {
			_ = s.close()
			return 0, classifySpill("spill sync", err)
		}
		if err := s.f.Sync(); err != nil {
			_ = s.close()
			return 0, classifySpill("spill sync", err)
		}
	}
	info, err := s.f.Stat()
	if err != nil {
		_ = s.close() // already failing; the Stat error is the one to report
		return 0, classifySpill("spill stat", err)
	}
	s.bytes = info.Size()
	s.m.mu.Lock()
	s.m.written += s.bytes
	s.m.mu.Unlock()
	return s.bytes, nil
}

// Bytes returns the on-disk size recorded by Finish.
func (s *SpillFile) Bytes() int64 { return s.bytes }

// close closes the descriptor and deregisters from the manager's sweep set.
// Idempotent.
func (s *SpillFile) close() error {
	s.m.mu.Lock()
	delete(s.m.open, s)
	s.m.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	return f.Close()
}

// Reader starts a sequential read-back of the finished run from its first
// byte, by pread on the run's one descriptor, so readers never share or move
// a file offset. The spill.corrupt injection point mutates the sealed file in
// place first (bit flip, truncated tail, torn write — see
// faults.CorruptKind), modelling damage that happened at rest; it goes
// through the path to the same inode, so the held descriptor reads the
// damage, and the reader's checksums are what must catch it.
func (s *SpillFile) Reader() (*SpillReader, error) {
	if err := s.m.Faults.Fire(faults.Point("spill.read")); err != nil {
		return nil, classifySpill("spill read", err)
	}
	if err := s.m.Faults.MutateFile(faults.Point("spill.corrupt"), s.path); err != nil {
		return nil, classifySpill("spill corrupt", err)
	}
	if s.f == nil {
		return nil, classifySpill("spill read", os.ErrClosed)
	}
	r := &SpillReader{at: fileAt{f: s.f}}
	r.r = types.NewRunReader(&r.at)
	return r, nil
}

// Verify checks the sealed run end to end without decoding tuples: every
// block checksum, the footer seal, and — belt and suspenders on top of the
// footer — the writer's own row count against the records on disk. A nil
// return means read-back will reproduce exactly the rows that were
// appended; damage returns an error classified faults.ErrCorrupt.
func (s *SpillFile) Verify() error {
	r, err := s.Reader()
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.r.Verify(); err != nil {
		return err
	}
	if got, want := r.r.Rows(), s.w.Rows(); got != want {
		return fmt.Errorf("storage: run %s holds %d rows but the writer appended %d: %w",
			filepath.Base(s.path), got, want, faults.ErrCorrupt)
	}
	return nil
}

// Remove closes the run's descriptor and deletes the file from disk (after
// its sub-join consumed it). A close error is reported after the unlink is
// attempted — removal is the caller's primary intent.
func (s *SpillFile) Remove() error {
	if err := s.m.Faults.Fire(faults.Point("spill.remove")); err != nil {
		return classifySpill("spill remove", err)
	}
	cerr := s.close()
	if err := os.Remove(s.path); err != nil {
		return classifySpill("spill remove", err)
	}
	return cerr
}

// SpillReader streams tuples back out of a run file.
type SpillReader struct {
	at fileAt
	r  *types.RunReader
}

// Next returns the next tuple, io.EOF at the end of the run.
func (r *SpillReader) Next() (types.Tuple, error) {
	return r.NextIn(nil)
}

// NextIn is Next with the tuple carved from a (nil: the heap) — see
// types.RunReader.NextIn. A reader used after Close fails classified
// faults.ErrSpillIO, never with io.EOF.
func (r *SpillReader) NextIn(a *types.Arena) (types.Tuple, error) {
	return r.r.NextIn(a)
}

// Close returns the reader's block frame to the pool. The run's descriptor
// stays open: it belongs to the SpillFile. Idempotent.
func (r *SpillReader) Close() error {
	r.r.Close()
	return nil
}

// fileAt reads a file from its start by pread, keeping its own offset.
type fileAt struct {
	f   *os.File
	off int64
}

func (r *fileAt) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}
