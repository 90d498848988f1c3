package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynopt"
)

// sample is one timed query execution.
type sample struct {
	Op     *op
	WallMS float64
	M      dynopt.Metrics
}

// roundStat is what one timed round cost.
type roundStat struct {
	WallS      float64 // sum of the round's op walls: harness work between ops is excluded
	Traced     bool
	AllocBytes uint64
	GCCycles   uint32
	GCCPU      float64 // cpu-seconds the collector used
	BusyCPU    float64 // cpu-seconds the process was not idle
	RefMS      float64
}

// session is one run of one workload in one process.
type session struct {
	w       workload
	sf      int
	seed    int64
	scratch string
	rec     *recorder
	root    int // root span

	pinned map[string]string // expected digests
	seen   map[string]string // first digest seen per key this run

	attempted, failed int
	failures          []string

	db      *dynopt.DB
	setupS  []float64
	samples []sample
	rounds  []roundStat
	nextRun int

	// sim and wall per strategy and subject, from every pass that ran one.
	sim  map[dynopt.Strategy]map[string]float64
	wall map[dynopt.Strategy]map[string][]float64

	quick   bool // layer pass at its minimum repetitions
	ref     refKernel
	altRows []string // forced-alternative rows of the layer pass
}

func newSession(w workload, sf int, seed int64, scratch string, pinned map[string]string) *session {
	return &session{
		w: w, sf: sf, seed: seed, scratch: scratch, pinned: pinned,
		seen: map[string]string{},
		sim:  map[dynopt.Strategy]map[string]float64{},
		wall: map[dynopt.Strategy]map[string][]float64{},
		ref:  newRefKernel(),
	}
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one gate of the correctness contract.
func (s *session) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.fail(format, args...)
	}
}

// exec runs one op, checks its rows against the pinned digest (or, for a
// query with no pin, against the first digest this run saw for it), and
// files its wall and simulated time. rec is nil in an untraced round. It returns nil when the op failed.
func (s *session) exec(rec *recorder, o *op, parent int) *sample {
	s.nextRun++
	id := rec.begin("op:"+o.Name, parent, s.nextRun)
	start := time.Now()
	res, err := s.db.Query(o.SQL, o.options())
	wallMS := float64(time.Since(start)) / 1e6
	s.attempted++
	if err != nil {
		rec.end(id, nil)
		s.fail("%s: %v", o.Name, err)
		return nil
	}
	m := res.Metrics
	if rec != nil {
		rec.end(id, opAttrs(&m))
	}
	key := digestKey(s.sf, o.Query)
	got := rowDigest(res)
	want, ok := s.pinned[key]
	if !ok {
		if want, ok = s.seen[key]; !ok {
			s.seen[key] = got
			want = got
		}
	}
	if got != want {
		s.fail("%s: row digest %s, want %s", o.Name, got, want)
		return nil
	}
	if s.sim[o.Strategy] == nil {
		s.sim[o.Strategy] = map[string]float64{}
		s.wall[o.Strategy] = map[string][]float64{}
	}
	s.sim[o.Strategy][o.Subject] = m.SimSeconds
	s.wall[o.Strategy][o.Subject] = append(s.wall[o.Strategy][o.Subject], wallMS)
	return &sample{Op: o, WallMS: wallMS, M: m}
}

func opAttrs(m *dynopt.Metrics) map[string]float64 {
	c := m.Counters
	return map[string]float64{
		"sim_s": m.SimSeconds, "reopts": float64(m.Reopts), "pushdowns": float64(m.PushDowns),
		"scan_rows": float64(c.ScanRows), "shuffle_rows": float64(c.ShuffleRows),
		"broadcast_rows": float64(c.BroadcastRows), "mat_write_rows": float64(c.MatWriteRows),
		"build_rows": float64(c.BuildRows), "probe_rows": float64(c.ProbeRows),
		"index_lookups": float64(c.IndexLookups), "stats_observed": float64(c.StatsObserved),
		"spill_bytes": float64(c.SpillBytes), "pages_read": float64(m.PagesRead),
	}
}

// runSetups sets the workload up n times — Open through load, index build,
// page conversion and one untimed warm-up round — keeping the last DB. The
// median is the reported set-up time; repeating it in one process is what
// makes that median steady enough to bound.
func (s *session) runSetups(n int) error {
	for i := 0; i < n; i++ {
		s.db = nil
		runtime.GC()
		dir := filepath.Join(s.scratch, fmt.Sprintf("setup%d", i))
		if err := scratchDir(dir); err != nil {
			return err
		}
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(s.scratch, fmt.Sprintf("setup%d", i-1))); err != nil {
				return err
			}
		}
		id := s.rec.begin("setup", s.root, 0)
		start := time.Now()
		db, err := s.w.setup(dir, s.sf)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.db = db
		for j := range s.w.Ops {
			s.exec(s.rec, &s.w.Ops[j], id)
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		s.rec.end(id, nil)
	}
	return nil
}

// runReference executes, untimed, what the timed rounds do not. Normally
// that is the cost-based run of each subject the op list lacks, which
// sim_speedup_vs_costbased needs. With full set it is the fidelity pass:
// every subject under dynamic and cost-based, and the first subject of each
// statement under all six strategies — exec requires every plan to return
// the pinned rows. Further bindings and access paths of a statement get the
// two strategies only: four more through the same plan shapes buy no new
// check and, on serve, would triple the pass.
func (s *session) runReference(full bool) {
	id := s.rec.begin("reference", s.root, 0)
	timed := map[string]bool{}
	for _, o := range s.w.Ops {
		timed[o.Name] = true
	}
	seenSQL := map[string]bool{}
	for _, subj := range s.w.subjects() {
		strategies := []dynopt.Strategy{dynopt.StrategyCostBased}
		if full {
			strategies = allStrategies[:2]
			if !seenSQL[subj.SQL] {
				strategies = allStrategies
			}
		}
		seenSQL[subj.SQL] = true
		for _, st := range strategies {
			o := subj.with(st)
			if full || !timed[o.Name] {
				s.exec(s.rec, &o, id)
			}
		}
	}
	s.rec.end(id, nil)
}

// readCPU returns the cpu-seconds the collector has used and the cpu-seconds
// the process has been busy (available minus idle) so far. The runtime
// refreshes both at GC phase changes, so a delta covers the same interval in
// numerator and denominator.
func readCPU() (gc, busy float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64() - samples[2].Value.Float64()
}

// runRounds is the closed loop: one client, each round the whole op list
// once in an order shuffled by the seed. Before each round the heap is
// collected and the reference kernel runs, both outside the timed spans.
// Rounds repeat until `rounds` are done or, when rounds is 0, until the
// rounds' walls add up to budget: the timed section is at least that long,
// whatever the harness spends between rounds. In a traced run every other
// round records spans, so the two kinds share the same minutes of host drift.
func (s *session) runRounds(rounds int, budget time.Duration, traced bool) {
	rng := rand.New(rand.NewSource(s.seed))
	order := make([]int, len(s.w.Ops))
	for i := range order {
		order[i] = i
	}
	var timedS float64
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds {
			break
		}
		if rounds == 0 && timedS >= budget.Seconds() && (!traced || r >= 2) {
			break
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		stat := roundStat{Traced: traced && r%2 == 1}
		var rec *recorder // nil records nothing
		if stat.Traced {
			rec = s.rec
		}
		runtime.GC()
		stat.RefMS = s.ref.run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gc0, cpu0 := readCPU()
		id := rec.begin("round", s.root, 0)
		for _, i := range order {
			if smp := s.exec(rec, &s.w.Ops[i], id); smp != nil {
				stat.WallS += smp.WallMS / 1e3
				s.samples = append(s.samples, *smp)
			}
		}
		rec.end(id, nil)
		gc1, cpu1 := readCPU()
		runtime.ReadMemStats(&after)
		stat.AllocBytes = after.TotalAlloc - before.TotalAlloc
		stat.GCCycles = after.NumGC - before.NumGC
		stat.GCCPU, stat.BusyCPU = gc1-gc0, cpu1-cpu0
		s.rounds = append(s.rounds, stat)
		timedS += stat.WallS
		if stat.WallS == 0 {
			break // every op failed: more rounds would add no time and no news
		}
	}
}

// roundWalls returns the round walls of one kind.
func (s *session) roundWalls(traced bool) []float64 {
	var out []float64
	for _, r := range s.rounds {
		if r.Traced == traced {
			out = append(out, r.WallS)
		}
	}
	return out
}

// tally is the sum of the timed samples' counters: what the gates check and
// the per-query count metrics divide.
type tally struct {
	n                         int // timed samples
	reopts, pushdowns         int
	dynamic, hits, fallbacks  int
	rebuilds                  int64
	pagesRead, pagesPruned    int64
	pageHits, pageMisses      int64
	counters                  dynopt.Snapshot
	dynamicWallMS, allWallsMS []float64
}

func (s *session) tally() tally {
	t := tally{n: len(s.samples)}
	for _, smp := range s.samples {
		m, c := smp.M, smp.M.Counters
		t.reopts += m.Reopts
		t.pushdowns += m.PushDowns
		t.rebuilds += m.SpillRebuilds
		t.pagesRead += m.PagesRead
		t.pagesPruned += m.PagesPruned
		t.pageHits += m.PageCacheHits
		t.pageMisses += m.PageCacheMiss
		t.counters.MatWriteBytes += c.MatWriteBytes
		t.counters.StatsObserved += c.StatsObserved
		t.counters.BuildRows += c.BuildRows
		t.counters.ProbeRows += c.ProbeRows
		t.counters.ShuffleBytes += c.ShuffleBytes
		t.counters.BroadcastBytes += c.BroadcastBytes
		t.counters.SpillBytes += c.SpillBytes
		t.allWallsMS = append(t.allWallsMS, smp.WallMS)
		if smp.Op.Strategy == dynopt.StrategyDynamic {
			t.dynamic++
			t.dynamicWallMS = append(t.dynamicWallMS, smp.WallMS)
			if m.CacheHit {
				t.hits++
			}
		}
		if m.ReplayFellBack {
			t.fallbacks++
		}
	}
	return t
}

// perQuery divides a sum by the number of timed samples.
func (t tally) perQuery(sum float64) float64 { return sum / float64(max(t.n, 1)) }

// checkGates applies the workload invariants every run can see from the
// public Metrics; a violation counts as a failed op.
func (s *session) checkGates() {
	t := s.tally()
	s.check(t.rebuilds == 0, "storage.spill_rebuilds = %d, want 0", t.rebuilds)
	switch s.w.Name {
	case "serve":
		s.check(t.hits == t.dynamic, "memo.hit_frac = %d/%d, want 1 after warm-up", t.hits, t.dynamic)
		s.check(t.fallbacks == 0, "memo.fallbacks = %d, want 0", t.fallbacks)
	case "spill":
		// The floor is sized for the workload's own scale: at a -sf override
		// (the smoke test) the 4 KiB budget may spill nothing.
		if mb := t.perQuery(float64(t.counters.SpillBytes) / 1e6); s.sf == s.w.SF {
			s.check(mb >= 4, "storage.spill_mb_per_query = %.2f, want >= 4", mb)
		}
	case "paged":
		s.check(t.pagesRead > 0, "storage.pages_read_per_query = 0 on the paged workload")
	}
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// refKernel is an allocation-free pointer chase plus a hash pass over
// preallocated buffers, run on every core at once: a witness of how fast the
// whole host was before each round (a single-threaded kernel does not notice
// a second core being taken away, which is most of this host's drift). It is
// reported, never used to normalise anything.
type refKernel struct {
	next  []uint32
	buf   []uint64
	sinks []uint64
}

func newRefKernel() refKernel {
	const n = 1 << 21 // 8 MB of links: past the L2, inside the L3
	k := refKernel{next: make([]uint32, n), buf: make([]uint64, n/2), sinks: make([]uint64, runtime.GOMAXPROCS(0))}
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.Intn(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := range k.buf {
		k.buf[i] = rng.Uint64()
	}
	return k
}

func (k *refKernel) run() (ms float64) {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range k.sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := uint32(w * len(k.next) / len(k.sinks)) // each worker starts elsewhere on the cycle
			for i := 0; i < len(k.next); i++ {
				p = k.next[p]
			}
			h := uint64(p)
			for _, x := range k.buf {
				h = (h ^ x) * 0x9e3779b97f4a7c15
				h ^= h >> 29
			}
			k.sinks[w] = h
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / 1e6
}
