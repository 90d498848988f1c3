package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"

	"dynopt/internal/faults"
	"dynopt/internal/types"
)

func TestSpillManagerLazyCreation(t *testing.T) {
	root := t.TempDir()
	m := NewSpillManager(root, "q1_")
	if m.Dir() != "" {
		t.Error("spill dir created before first spill")
	}
	if err := m.Sweep(); err != nil {
		t.Errorf("sweep with no spills: %v", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill root not empty after no-spill query: %v", entries)
	}
}

func TestSpillFileRoundTripAndSweep(t *testing.T) {
	root := t.TempDir()
	m := NewSpillManager(root, "q2_")
	sf, err := m.Create("p0_l0_s3_build")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]types.Tuple, 100)
	for i := range want {
		want[i] = types.Tuple{types.Int(int64(i)), types.Str("spilled-row")}
		if err := sf.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	n, err := sf.Finish()
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(m.Dir(), filepath.Base(sfPath(sf))))
	if err != nil {
		t.Fatal(err)
	}
	if n != info.Size() {
		t.Errorf("Finish reported %d bytes, file has %d", n, info.Size())
	}
	if m.BytesWritten() != n {
		t.Errorf("manager counted %d bytes, file has %d", m.BytesWritten(), n)
	}
	r, err := sf.Reader()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got.String() != want[i].String() {
			t.Fatalf("row %d: got %s want %s", i, got, want[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last row: %v", err)
	}
	r.Close()

	if err := m.Sweep(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill root not empty after sweep: %v", entries)
	}
}

// TestSweepClosesUnfinishedFiles models a failed query: files that were
// never Finished (the join errored mid-write) are closed and removed.
func TestSweepClosesUnfinishedFiles(t *testing.T) {
	root := t.TempDir()
	m := NewSpillManager(root, "q3_")
	for i := 0; i < 3; i++ {
		sf, err := m.Create("unfinished")
		if err != nil {
			t.Fatal(err)
		}
		if err := sf.Append(types.Tuple{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
		// No Finish: the query died here.
	}
	if err := m.Sweep(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("unfinished spill files survived sweep: %v", entries)
	}
}

func TestSpillFileRemove(t *testing.T) {
	root := t.TempDir()
	m := NewSpillManager(root, "q4_")
	sf, err := m.Create("pair")
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(types.Tuple{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := sf.Remove(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("run file survived Remove: %v", entries)
	}
}

// TestSpillManagerConcurrentCreate exercises Create from many goroutines,
// as partition goroutines do mid-join.
func TestSpillManagerConcurrentCreate(t *testing.T) {
	root := t.TempDir()
	m := NewSpillManager(root, "q5_")
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sf, err := m.Create("c")
			if err != nil {
				errs[g] = err
				return
			}
			if err := sf.Append(types.Tuple{types.Int(int64(g))}); err != nil {
				errs[g] = err
				return
			}
			_, errs[g] = sf.Finish()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Errorf("expected 16 run files, found %d", len(entries))
	}
	if err := m.Sweep(); err != nil {
		t.Fatal(err)
	}
}

// sfPath exposes the file path for the stat cross-check above.
func sfPath(s *SpillFile) string { return s.path }

// sealedRun writes and seals a 200-row run under the manager.
func sealedRun(t *testing.T, m *SpillManager) *SpillFile {
	t.Helper()
	sf, err := m.Create("verify")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sf.Append(types.Tuple{types.Int(int64(i)), types.Str("verified-row")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sf.Finish(); err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestSpillFileVerify(t *testing.T) {
	m := NewSpillManager(t.TempDir(), "q6_")
	sf := sealedRun(t, m)
	if err := sf.Verify(); err != nil {
		t.Fatalf("verify of an intact run: %v", err)
	}
	// Damage one byte in place: Verify must classify it as corruption.
	f, err := os.OpenFile(sfPath(sf), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := sf.Verify(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("verify of a damaged run: %v, want ErrCorrupt", err)
	}
}

// TestSpillCorruptInjection drives each corruption kind through the
// spill.corrupt point: the mutation lands when Reader opens the file, and
// read-back detects it as ErrCorrupt — never a clean short read.
func TestSpillCorruptInjection(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind faults.CorruptKind
	}{
		{"flip-bit", faults.CorruptFlipBit},
		{"truncate-tail", faults.CorruptTruncateTail},
		{"torn-write", faults.CorruptTornWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewSpillManager(t.TempDir(), "q7_")
			m.Faults = faults.New(11)
			sf := sealedRun(t, m)
			m.Faults.Arm(faults.Rule{Point: "spill.corrupt", OneShot: true, Corrupt: tc.kind})
			err := sf.Verify()
			if !errors.Is(err, faults.ErrCorrupt) {
				t.Fatalf("injected %s not detected: %v", tc.name, err)
			}
			if m.Faults.Fired("spill.corrupt") != 1 {
				t.Errorf("fired = %d", m.Faults.Fired("spill.corrupt"))
			}
		})
	}
}

// TestSpillWriterRowsCrossCheck covers the belt-and-suspenders half of
// Verify: a forged-but-internally-consistent file that disagrees with the
// writer's own row count is corrupt even though its checksums pass.
func TestSpillWriterRowsCrossCheck(t *testing.T) {
	m := NewSpillManager(t.TempDir(), "q8_")
	sf := sealedRun(t, m)
	other := NewSpillManager(t.TempDir(), "q8b_")
	of, err := other.Create("forged")
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Append(types.Tuple{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Finish(); err != nil {
		t.Fatal(err)
	}
	// Splice the 1-row file (valid checksums, valid footer) over the
	// 200-row run's path.
	forged, err := os.ReadFile(sfPath(of))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sfPath(sf), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sf.Verify(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("forged run passed Verify: %v", err)
	}
}

// TestSpillClassifyDiskFull: injected ENOSPC and genuine short writes both
// classify as ErrDiskFull (which wraps ErrSpillIO, so the degradation
// ladder still sees a spill failure).
func TestSpillClassifyDiskFull(t *testing.T) {
	m := NewSpillManager(t.TempDir(), "q9_")
	m.Faults = faults.New(1)
	m.Faults.Arm(faults.Rule{Point: "spill.append", OneShot: true, Err: syscall.ENOSPC})
	sf, err := m.Create("full")
	if err != nil {
		t.Fatal(err)
	}
	err = sf.Append(types.Tuple{types.Int(1)})
	if !errors.Is(err, faults.ErrDiskFull) || !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("ENOSPC append classified %v, want ErrDiskFull wrapping ErrSpillIO", err)
	}
	if err := classifySpill("x", io.ErrShortWrite); !errors.Is(err, faults.ErrDiskFull) {
		t.Errorf("short write classified %v, want ErrDiskFull", err)
	}
	if err := classifySpill("x", os.ErrPermission); errors.Is(err, faults.ErrDiskFull) || !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("permission error classified %v, want plain ErrSpillIO", err)
	}
}

// TestSpillSyncKnob: with Sync set, Finish fsyncs through the spill.sync
// point (observable via its fired count) and still seals a readable run.
func TestSpillSyncKnob(t *testing.T) {
	m := NewSpillManager(t.TempDir(), "q10_")
	m.Faults = faults.New(1)
	m.Sync = true
	sf := sealedRun(t, m)
	if got := m.Faults.Fired("spill.sync"); got != 0 {
		// No rule armed: the point must not fire, only be passed through.
		t.Errorf("unarmed spill.sync fired %d times", got)
	}
	if err := sf.Verify(); err != nil {
		t.Fatalf("verify after synced finish: %v", err)
	}
	m2 := NewSpillManager(t.TempDir(), "q11_")
	m2.Faults = faults.New(1)
	m2.Sync = true
	m2.Faults.Arm(faults.Rule{Point: "spill.sync", EveryN: 1})
	sf2, err := m2.Create("sync")
	if err != nil {
		t.Fatal(err)
	}
	if err := sf2.Append(types.Tuple{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf2.Finish(); !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("faulted sync classified %v, want ErrSpillIO", err)
	}
}

// TestRunRowsSurviveReaderClose: rows read back from run A into a caller's
// arena keep their values after A's reader is closed and run B has been
// written and read through the same frame pool.
func TestRunRowsSurviveReaderClose(t *testing.T) {
	m := NewSpillManager(t.TempDir(), "q12_")
	defer m.Sweep()
	want := make([]types.Tuple, 500)
	a, err := m.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("row-a-%d", i))}
		if err := a.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	var arena types.Arena
	got := readRows(t, a, &arena)

	b, err := m.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := b.Append(types.Tuple{types.Int(-1), types.Str(fmt.Sprintf("row-b-overwrites-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	readRows(t, b, &types.Arena{})

	if len(got) != len(want) {
		t.Fatalf("run A read back %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d of run A is %s after run B, want %s", i, got[i], want[i])
		}
	}
}

// readRows reads a sealed run to its verified end into arena and closes the
// reader.
func readRows(t *testing.T, sf *SpillFile, arena *types.Arena) []types.Tuple {
	t.Helper()
	r, err := sf.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rows []types.Tuple
	for {
		tu, err := r.NextIn(arena)
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, tu)
	}
}

// TestRunNextAfterClose: a closed SpillReader fails classified ErrSpillIO,
// never with the io.EOF of a clean, complete run.
func TestRunNextAfterClose(t *testing.T) {
	m := NewSpillManager(t.TempDir(), "q13_")
	defer m.Sweep()
	sf := sealedRun(t, m)
	r, err := sf.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("Next after Close: %v, want ErrSpillIO", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The run itself is untouched: a new reader reads it whole.
	if got := readRows(t, sf, nil); len(got) != 200 {
		t.Errorf("run read back %d rows after a reader closed, want 200", len(got))
	}
	// A removed run has no descriptor left to read through.
	if err := sf.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Reader(); !errors.Is(err, faults.ErrSpillIO) {
		t.Errorf("Reader of a removed run: %v, want ErrSpillIO", err)
	}
}

// TestRunSweepClosesDescriptors: a sealed run keeps one descriptor open for
// Verify and read-back, so Sweep must close the descriptors of runs that
// were sealed, verified and read but never removed — none may outlive the
// query's spill dir. Linux only: it reads /proc/self/fd.
func TestRunSweepClosesDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("descriptor check reads /proc/self/fd")
	}
	m := NewSpillManager(t.TempDir(), "q14_")
	var runs []*SpillFile
	for i := 0; i < 3; i++ {
		sf := sealedRun(t, m)
		if err := sf.Verify(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, sf)
	}
	readRows(t, runs[0], nil)
	dir := m.Dir()
	if n := openUnder(t, dir); n != len(runs) {
		t.Fatalf("%d descriptors open under the spill dir before Sweep, want %d (one per sealed run)", n, len(runs))
	}
	if err := m.Sweep(); err != nil {
		t.Fatal(err)
	}
	if n := openUnder(t, dir); n != 0 {
		t.Errorf("%d descriptors still open under the swept spill dir", n)
	}
}

// openUnder counts this process's open descriptors on files under dir.
func openUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}
