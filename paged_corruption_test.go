package dynopt

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"dynopt/internal/bench"
	"dynopt/internal/faults"
	"dynopt/internal/storage"
)

// TestPagedCorruptionClassified is the disk-native analogue of the spill
// corruption suite: at-rest damage to a sealed page file — a flipped bit, a
// truncated tail, a torn write — injected through the page.corrupt point
// while the workload converts to paged form must either fail classified
// faults.ErrCorrupt (at open, when the footer or directory is hit, or at
// scan time, when a page body is) or leave the query's rows byte-identical
// to the resident baseline (when the damage lands on a dataset the query
// never reads). Never a panic, never silently wrong rows.
func TestPagedCorruptionClassified(t *testing.T) {
	q := bench.Queries()[0] // Q17: joins across several base datasets
	resident, err := bench.NewEnv(1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	strat := resident.Strategies()[0]
	want, _, err := resident.RunOneResult(strat, q.SQL)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		kind CorruptKind
	}{
		{"flip-bit", CorruptFlipBit},
		{"truncate-tail", CorruptTruncateTail},
		{"torn-write", CorruptTornWrite},
	} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				paged, err := bench.NewEnv(1, 4, false)
				if err != nil {
					t.Fatal(err)
				}
				reg := NewFaultRegistry(200 + seed)
				reg.Arm(FaultRule{Point: "page.corrupt", OneShot: true, Corrupt: tc.kind})
				if err := paged.ConvertPaged(t.TempDir(), 64, paged.DatasetBytes()/8, reg); err != nil {
					if !errors.Is(err, faults.ErrCorrupt) {
						t.Fatalf("conversion failed unclassified: %v", err)
					}
					return
				}
				if reg.Fired("page.corrupt") != 1 {
					t.Fatal("page.corrupt never fired during conversion")
				}
				res, _, err := paged.RunOneResult(strat, q.SQL)
				if err != nil {
					if !errors.Is(err, faults.ErrCorrupt) {
						t.Fatalf("query over the damaged store failed unclassified: %v", err)
					}
					return
				}
				// The damage missed every page the query decodes: the rows
				// must then be byte-identical to the resident baseline.
				compareResults(t, want, res)
			})
		}
	}
}

// TestPagedCorruptionSeekPath damages pages that a query reaches only through
// an index fetch. With the Figure 8 indexes built, the dynamic strategy runs
// Q9's lineitem join as an indexed nested-loop join, so no lineitem page is
// ever scanned: each is read, if at all, by the batched fetch of the index
// probe. One bit is flipped inside one lineitem page at a time, over an
// uncached store (every read hits the damaged file). A fetch that lands on
// the page must fail classified faults.ErrCorrupt; a query that never fetches from it must
// return the resident rows in full. Never a panic, never a short result.
func TestPagedCorruptionSeekPath(t *testing.T) {
	q := bench.Queries()[3]
	if q.Name != "Q9" {
		t.Fatalf("query 3 is %s, want Q9", q.Name)
	}
	resident, err := bench.NewEnv(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := resident.RunOneResult(resident.Strategies()[0], q.SQL)
	if err != nil {
		t.Fatal(err)
	}

	paged, err := bench.NewEnv(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// 16-row pages: the probe fetches from some lineitem pages and not from
	// others, so both outcomes occur.
	if err := paged.ConvertPaged(t.TempDir(), 16, 0, nil); err != nil {
		t.Fatal(err)
	}
	li, ok := paged.Fresh().Catalog.Get("lineitem")
	if !ok || !li.IsPaged() {
		t.Fatal("lineitem is not paged")
	}
	pg := li.Paged()
	file, err := os.OpenFile(pg.File().Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	// flip toggles one bit in the middle of a page's payload; a second call
	// restores it.
	flip := func(pi *storage.PageInfo) {
		t.Helper()
		off := pi.Offset + 8 + int64(pi.Len)/2
		var b [1]byte
		if _, err := file.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := file.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}

	_, rep, err := paged.RunOneResult(paged.Strategies()[0], q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.IndexLookups == 0 || !strings.Contains(strings.Join(rep.StagePlans, "\n"), "(l ⋈i") {
		t.Fatalf("lineitem is not joined through its index:\n%s", rep)
	}
	var classified, intact int
	for p := 0; p < pg.File().Partitions(); p++ {
		for i := 0; i < pg.Pages(p); i += 5 {
			flip(pg.Page(p, i))
			res, _, err := paged.RunOneResult(paged.Strategies()[0], q.SQL)
			flip(pg.Page(p, i))
			if err != nil {
				if !errors.Is(err, faults.ErrCorrupt) {
					t.Fatalf("page (%d,%d): failed unclassified: %v", p, i, err)
				}
				classified++
				continue
			}
			compareResults(t, want, res)
			intact++
		}
	}
	if classified == 0 || intact == 0 {
		t.Errorf("%d classified failures and %d intact runs; want both to occur", classified, intact)
	}
}
