package engine

import (
	"errors"
	"fmt"
	"io"

	"dynopt/internal/cluster"
	"dynopt/internal/faults"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// This file is the hash join's per-partition worker and the dynamic hybrid
// hash join it runs under a Context.SpillBudget: the disk-backed counterpart
// of meterSpill's byte arithmetic, modeled on the AsterixDB join of "Design
// Trade-offs for a Robust Dynamic Hybrid Hash Join" (PAPERS.md), where the
// hybrid join is the hash join. Per partition (node), build rows scatter into
// spillFanout sub-partitions; when the resident set would exceed the
// per-node memory budget — or the cluster governor signals cross-query
// pressure — the largest resident sub-partition is evicted to an on-disk
// run file. Probe rows for resident sub-partitions stream through the
// in-memory table immediately; the rest are deferred to probe run files,
// and every spilled (build, probe) pair is joined recursively on read-back
// with a different hash salt per level. SpillBytes/SpillRows meter the
// actual run-file bytes and rows written.

const (
	// spillFanout is the sub-partition count per recursion level. With the
	// budget at 1/k of the build side, k < spillFanout sub-partitions stay
	// resident and the rest take exactly one extra disk round trip.
	spillFanout = 16
	// spillMaxDepth bounds recursion: past it (pathological skew — e.g. one
	// join key holding over-budget row counts) the remaining pair is joined
	// in memory, over budget, rather than recursing forever.
	spillMaxDepth = 6
)

// spillSeeds salt the sub-partition hash per recursion level; reusing the
// level-0 bits would send every spilled row back to one sub-partition.
var spillSeeds = [spillMaxDepth + 1]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
	0x2545f4914f6cdd1d, 0xd6e8feb86659fd93, 0xca6b5c2f4f5dd0e9,
	0xaf36d01ef7518dbb,
}

// spillSub maps a join-key prehash to a sub-partition at a recursion level,
// remixing the hash so levels (and the node-routing h mod n) see
// independent bits.
func spillSub(h uint64, level int) int {
	x := h ^ spillSeeds[level]
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % spillFanout)
}

// rowSeq streams (tuple, key prehash, encoded size) triples: in-memory
// partitions at level 0, run-file read-backs below. A size of -1 means
// unknown (the consumer walks EncodedSize itself); the level-0 build side
// carries the exact sizes the exchange already computed, and only build
// sizes are ever read. next returns io.EOF at a clean end.
type rowSeq interface {
	next() (types.Tuple, uint64, int64, error)
}

// memSeq streams an in-memory partition with its prehash array and
// (optionally) its per-row encoded sizes.
type memSeq struct {
	rows   []types.Tuple
	hashes []uint64
	sizes  []int64 // nil: sizes unknown
	i      int
}

func (s *memSeq) next() (types.Tuple, uint64, int64, error) {
	if s.i >= len(s.rows) {
		return nil, 0, 0, io.EOF
	}
	t, h := s.rows[s.i], s.hashes[s.i]
	sz := int64(-1)
	if s.sizes != nil {
		sz = s.sizes[s.i]
	}
	s.i++
	return t, h, sz, nil
}

// chunkSeq streams a probe chunk stream row-at-a-time for the spill join:
// the adapter between the stage pipeline's chunked probe delivery and the
// DHHJ's row-granular build/probe loops. Any of its rows may be headed for a
// run file, so each arriving chunk is flattened and narrowed to schema width
// here, once, and the rows then align with the chunk's sidecars.
type chunkSeq struct {
	st    probeStream
	c     *Chunk
	rows  []types.Tuple // c's live rows at schema width
	i     int
	buf   []types.Tuple
	arena types.Arena
}

func (s *chunkSeq) next() (types.Tuple, uint64, int64, error) {
	//dynopt:cancel-ok row-granular adapter: the DHHJ build/probe loops downstream check ctx.Err() on a row stride
	for s.i >= len(s.rows) {
		c, err := s.st.next()
		if err != nil {
			return nil, 0, 0, err // io.EOF passes through as the clean end
		}
		s.c, s.rows, s.i = c, c.dense(&s.buf, &s.arena), 0
	}
	i := s.i
	s.i++
	return s.rows[i], s.c.Hashes[i], -1, nil
}

// fileSeq streams a run file, recomputing each row's key prehash (run
// records store the tuple only). At EOF it cross-checks the rows actually
// decoded against the writer's in-memory count — the footer's consumer-side
// assertion, independent of anything stored on disk.
type fileSeq struct {
	r       *storage.SpillReader
	keyCols []int
	expect  int64 // rows the writer sealed (SpillFile.Rows)
	n       int64 // rows decoded so far
}

func (s *fileSeq) next() (types.Tuple, uint64, int64, error) {
	t, err := s.r.Next()
	if err != nil {
		if err == io.EOF && s.n != s.expect {
			return nil, 0, 0, fmt.Errorf("engine: run read back %d rows but the writer appended %d: %w",
				s.n, s.expect, faults.ErrCorrupt)
		}
		return nil, 0, 0, err
	}
	s.n++
	return t, t.HashKeys(s.keyCols), -1, nil
}

// runSource names where a spilled run's rows came from, so a run found
// corrupt on read-back can be rebuilt: at level 0 a way to read the input
// again (the in-memory build partition; a probe that is a relation's
// partition), below it the parent level's run file (still on disk until its
// own pair completes). A nil *runSource marks a side with no replayable
// source — a probe fed by a scan or the scatter, whose chunks were consumed
// as they arrived.
type runSource struct {
	reopen  func() (rowSeq, error)
	file    *storage.SpillFile
	keyCols []int
}

// open returns a fresh pass over the source, plus a close func for
// file-backed sources.
func (s *runSource) open() (rowSeq, func() error, error) {
	if s.file != nil {
		r, err := s.file.Reader()
		if err != nil {
			return nil, nil, err
		}
		return &fileSeq{r: r, keyCols: s.keyCols, expect: s.file.Rows()}, r.Close, nil
	}
	seq, err := s.reopen()
	return seq, nil, err
}

// spillJoin carries one partition's join through its recursion levels.
type spillJoin struct {
	ctx        *Context
	acct       *cluster.Accounting
	grant      *cluster.Grant
	part       int   // partition index, for run-file labels
	budget     int64 // per-node resident build budget
	bCols      []int // build-side key columns
	pCols      []int // probe-side key columns
	buildFirst bool

	arena types.Arena
	// out buffers up to one chunk of output rows between flushes to sink.
	out  []types.Tuple
	sink Sink
	// noSpill marks the degraded mode entered when the spill device fails
	// before any run file landed: the join holds its whole build side
	// resident — reserving the bytes but ignoring budget and pressure, like
	// the depth-capped inMemory fallback — instead of failing the query.
	noSpill bool
}

// maybeFlush hands the buffered output to the sink once a chunk's worth has
// accumulated. The buffer is reused: sinks copy the headers they keep.
func (j *spillJoin) maybeFlush() error {
	if len(j.out) < j.ctx.chunkRows() {
		return nil
	}
	return j.flush()
}

func (j *spillJoin) flush() error {
	if len(j.out) == 0 {
		return nil
	}
	err := j.sink.Emit(j.part, j.out)
	j.out = j.out[:0]
	return err
}

// joinPartition is the hash join's per-partition worker, and the one place
// the spill budget decides how a partition is joined. The probe side arrives
// chunk-by-chunk and output rows flow into the sink as they are produced.
// With no budget (SpillBudget 0: nothing really spills), or when the build
// side fits it and the governor has room, the whole build side goes under one
// table and probe chunks stream through it; otherwise the dynamic hybrid hash
// join holds at most the budget of build rows resident and evicts the rest
// to run files — a build side that fits simply never evicts. reopen, when the
// probe can be read again, starts a second pass over it (nil: it cannot);
// hint is the probe partition's encoded size when its source knew it, else
// -1.
func joinPartition(ctx *Context, p int,
	bRows []types.Tuple, bHash []uint64, bSize []int64, bCols []int, buildBytes int64,
	probe probeStream, reopen func() (probeStream, error), hint int64, pCols []int, buildFirst bool, sink Sink) error {

	budget := ctx.SpillBudget()
	acct := ctx.Accounting()
	gr := ctx.Grant
	resident := budget == 0
	if !resident && buildBytes <= budget {
		if resident = gr.Reserve(buildBytes); resident {
			defer gr.Release(buildBytes)
		} else {
			// Cross-query pressure: the bytes were charged by the failed
			// Reserve, so undo before taking the spilling path (which holds
			// only its resident set).
			gr.Release(buildBytes)
		}
	}
	if resident {
		w := &probeState{
			ctx:   ctx,
			ht:    buildTable(bRows, bHash, bCols),
			pCols: pCols, buildFirst: buildFirst,
			sink: sink, p: p,
		}
		acct.BuildRows.Add(int64(len(bRows)))
		if err := w.drain(probe); err != nil {
			return err
		}
		acct.ProbeRows.Add(w.probeRows)
		meterSpill(ctx, buildBytes, w.bytes(hint), int64(len(bRows)), w.probeRows)
		return nil
	}
	j := &spillJoin{
		ctx: ctx, acct: acct, grant: gr, part: p, budget: budget,
		bCols: bCols, pCols: pCols, buildFirst: buildFirst,
		sink: sink,
	}
	build := &memSeq{rows: bRows, hashes: bHash, sizes: bSize}
	bSrc := &runSource{reopen: func() (rowSeq, error) {
		again := *build
		again.i = 0
		return &again, nil
	}}
	// A probe with no second pass leaves pSrc nil: a corrupt probe run at
	// level 0 then fails classified rather than rebuilding; the build side
	// recovers as usual.
	var pSrc *runSource
	if reopen != nil {
		pSrc = &runSource{reopen: func() (rowSeq, error) {
			st, err := reopen()
			if err != nil {
				return nil, err
			}
			return &chunkSeq{st: st}, nil
		}}
	}
	if err := j.run(0, build, &chunkSeq{st: probe}, bSrc, pSrc); err != nil {
		return err
	}
	return j.flush()
}

// run executes one recursion level of the dynamic hybrid hash join. bSrc
// and pSrc name where the build/probe rows came from, for rebuilding a run
// found corrupt on read-back (nil: that side is not replayable).
func (j *spillJoin) run(level int, build, probe rowSeq, bSrc, pSrc *runSource) error {
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if level > spillMaxDepth {
		// Pathological skew: the same keys refuse to split any further.
		// Join the pair in memory, over budget, rather than recurse forever.
		return j.inMemory(build, probe)
	}

	var (
		rows     [spillFanout][]types.Tuple
		hashes   [spillFanout][]uint64
		bytes    [spillFanout]int64
		bFile    [spillFanout]*storage.SpillFile
		resident int64
	)
	largest := func() int {
		v, best := -1, int64(0)
		for s := 0; s < spillFanout; s++ {
			if bFile[s] == nil && bytes[s] > best {
				v, best = s, bytes[s]
			}
		}
		return v
	}
	evict := func(s int) error {
		f, err := j.newFile(level, s, "build")
		if err != nil {
			return err
		}
		for _, t := range rows[s] {
			if err := f.Append(t); err != nil {
				// The victim stays resident (its rows and reservation are
				// only cleared below, after every append succeeded); drop the
				// partial run so the failed eviction leaves no residue.
				_ = f.Remove()
				return err
			}
		}
		j.grant.Release(bytes[s])
		resident -= bytes[s]
		rows[s], hashes[s], bytes[s] = nil, nil, 0
		bFile[s] = f
		return nil
	}
	// tryEvict is evict plus the graceful-degradation rung: when the spill
	// device fails before anything from this level landed on disk, and the
	// governor still has room, the join degrades to holding the build
	// resident (noSpill) instead of failing the query. Once a run file
	// exists the data is already partly on the failed device and only an
	// error can surface it; without governor room the resident set would be
	// an unbounded over-reservation, so the failure is classified
	// over-capacity on top of the spill cause.
	tryEvict := func(v int) error {
		err := evict(v)
		if err == nil || !errors.Is(err, faults.ErrSpillIO) {
			return err
		}
		for s := 0; s < spillFanout; s++ {
			if bFile[s] != nil {
				return err
			}
		}
		if !j.grant.WithinCapacity() {
			return fmt.Errorf("engine: spill device failed with no governor room to hold the build resident: %w (%w)", err, faults.ErrOverCapacity)
		}
		j.noSpill = true
		return nil
	}

	// Build phase: scatter into sub-partitions, evicting the largest
	// resident victim whenever the next row would push the resident set
	// over the per-node budget (so peak resident build memory never
	// exceeds it), and shedding one victim on governor pressure.
	n := 0
	for {
		t, h, sz, err := build.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if n++; n&0xfff == 0 {
			if err := j.ctx.Err(); err != nil {
				return err
			}
		}
		s := spillSub(h, level)
		if bFile[s] != nil {
			if err := bFile[s].Append(t); err != nil {
				return err
			}
			continue
		}
		if sz < 0 {
			sz = int64(t.EncodedSize()) //dynopt:size-ok run-file rows carry no cached size; walked once on re-read
		}
		if !j.noSpill {
			for resident+sz > j.budget && !j.noSpill {
				v := largest()
				if v < 0 {
					break
				}
				if err := tryEvict(v); err != nil {
					return err
				}
			}
			if bFile[s] == nil && !j.noSpill && resident+sz > j.budget {
				// Everything else is already on disk and this row alone breaks
				// the budget: spill its own (empty or not) sub-partition.
				if err := tryEvict(s); err != nil {
					return err
				}
			}
			if bFile[s] != nil {
				if err := bFile[s].Append(t); err != nil {
					return err
				}
				continue
			}
		}
		rows[s] = append(rows[s], t)
		hashes[s] = append(hashes[s], h)
		bytes[s] += sz
		resident += sz
		if !j.grant.Reserve(sz) && !j.noSpill {
			if v := largest(); v >= 0 {
				if err := tryEvict(v); err != nil {
					return err
				}
			}
		}
	}
	// Seal the build run files: spill accounting charges the actual bytes
	// and rows written.
	for s := 0; s < spillFanout; s++ {
		if bFile[s] == nil {
			continue
		}
		nb, err := bFile[s].Finish()
		if err != nil {
			return err
		}
		j.acct.SpillBytes.Add(nb)
		j.acct.SpillRows.Add(bFile[s].Rows())
	}

	// Hybrid probe phase: resident sub-partitions are probed through one
	// in-memory table as probe rows arrive; rows belonging to spilled
	// sub-partitions are deferred to probe run files.
	var resRows []types.Tuple
	var resHashes []uint64
	for s := 0; s < spillFanout; s++ {
		resRows = append(resRows, rows[s]...)
		resHashes = append(resHashes, hashes[s]...)
	}
	ht := buildTable(resRows, resHashes, j.bCols)
	j.acct.BuildRows.Add(int64(len(resRows)))

	var pFile [spillFanout]*storage.SpillFile
	var probed int64
	n = 0
	for {
		t, h, _, err := probe.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if n++; n&0xfff == 0 {
			if err := j.ctx.Err(); err != nil {
				return err
			}
		}
		s := spillSub(h, level)
		if bFile[s] != nil {
			if pFile[s] == nil {
				pFile[s], err = j.newFile(level, s, "probe")
				if err != nil {
					return err
				}
			}
			if err := pFile[s].Append(t); err != nil {
				return err
			}
			continue
		}
		probed++
		j.out = ht.probeInto(j.out, &j.arena, t, h, j.pCols, j.buildFirst)
		if err := j.maybeFlush(); err != nil {
			return err
		}
	}
	j.acct.ProbeRows.Add(probed)

	// The resident set is done; return its memory before recursing so the
	// read-back levels can use the budget.
	j.grant.Release(resident)
	resRows, resHashes, ht = nil, nil, nil
	for s := 0; s < spillFanout; s++ {
		rows[s], hashes[s] = nil, nil
	}
	for s := 0; s < spillFanout; s++ {
		if pFile[s] == nil {
			continue
		}
		nb, err := pFile[s].Finish()
		if err != nil {
			return err
		}
		j.acct.SpillBytes.Add(nb)
		j.acct.SpillRows.Add(pFile[s].Rows())
	}

	// Recursive pass: join every spilled (build, probe) pair on read-back.
	// Probe runs — and build runs that must recurse — are verified
	// (checksums, footer seal, row counts) before their pair is joined; a
	// corrupt run is rebuilt once from its source. The verify-then-join
	// order matters for those, because corruption discovered mid-join could
	// not be retried without duplicating rows already streamed to the sink.
	// A build run that already fits the budget skips the separate CRC walk:
	// the in-memory join decodes it fully — checked block by block — before
	// the first probe row streams, so corruption still surfaces with
	// nothing emitted and the same rebuild-once ladder applies
	// (verify-as-you-decode, one read of the run instead of two).
	for s := 0; s < spillFanout; s++ {
		if bFile[s] == nil {
			continue
		}
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if pFile[s] == nil || pFile[s].Rows() == 0 || bFile[s].Rows() == 0 {
			// No rows on one side: the pair cannot produce matches.
			if err := bFile[s].Remove(); err != nil {
				return err
			}
			if pFile[s] != nil {
				if err := pFile[s].Remove(); err != nil {
					return err
				}
			}
			continue
		}
		if bFile[s].Bytes() <= j.budget {
			// Build reads first (as in the non-resident path), so damage on
			// the build device surfaces against the side that can rebuild.
			rb, err := j.loadBuildRecovering(level, s, &bFile[s], bSrc)
			if err != nil {
				return err
			}
			if err := j.ensureIntact(level, s, "probe", &pFile[s], pSrc); err != nil {
				return err
			}
			if err := j.probeSpilledRun(rb, pFile[s]); err != nil {
				return err
			}
		} else {
			if err := j.ensureIntact(level, s, "build", &bFile[s], bSrc); err != nil {
				return err
			}
			if err := j.ensureIntact(level, s, "probe", &pFile[s], pSrc); err != nil {
				return err
			}
			if err := j.joinSpilledPair(level, bFile[s], pFile[s]); err != nil {
				return err
			}
		}
		// Run files we created and sealed ourselves: a failed unlink means
		// the disk-budget accounting is off, so surface it rather than let
		// the end-of-query Sweep paper over it.
		if err := bFile[s].Remove(); err != nil {
			return err
		}
		if err := pFile[s].Remove(); err != nil {
			return err
		}
	}
	return nil
}

// joinSpilledPair reads one spilled (build, probe) run pair back and joins
// it one level deeper. Pairs whose build run fits the budget never reach
// here — the recursion loop takes the verify-as-you-decode resident path
// for those instead.
func (j *spillJoin) joinSpilledPair(level int, bf, pf *storage.SpillFile) error {
	br, err := bf.Reader()
	if err != nil {
		return err
	}
	defer br.Close()
	pr, err := pf.Reader()
	if err != nil {
		return err
	}
	defer pr.Close()
	build := &fileSeq{r: br, keyCols: j.bCols, expect: bf.Rows()}
	probe := &fileSeq{r: pr, keyCols: j.pCols, expect: pf.Rows()}
	// One level deeper: the pair's own run files (still on disk until this
	// call returns) are the rebuild sources for the child level.
	return j.run(level+1, build, probe,
		&runSource{file: bf, keyCols: j.bCols},
		&runSource{file: pf, keyCols: j.pCols})
}

// ensureIntact verifies one sealed run end to end before its pair is
// joined, rebuilding it once from src when corrupt. *f is replaced by the
// rebuilt file (the corrupt original is unlinked); the rebuild is metered
// as SpillRebuilds. Failure is classified: corruption with no replayable
// source, a failed rebuild, or corruption recurring on the rebuilt run all
// surface wrapped in faults.ErrCorrupt — never a silent short read.
func (j *spillJoin) ensureIntact(level, sub int, side string, f **storage.SpillFile, src *runSource) error {
	err := (*f).Verify()
	if err == nil {
		return nil
	}
	if !errors.Is(err, faults.ErrCorrupt) {
		return err // device failure on the verify read, not damage
	}
	if src == nil {
		return fmt.Errorf("engine: corrupt %s run with no replayable source: %w", side, err)
	}
	nf, rerr := j.rebuildRun(level, sub, side, src)
	if rerr != nil {
		return fmt.Errorf("engine: rebuilding corrupt %s run: %w (%w)", side, rerr, faults.ErrCorrupt)
	}
	if verr := nf.Verify(); verr != nil {
		_ = nf.Remove()
		return fmt.Errorf("engine: corruption recurred on the rebuilt %s run: %w", side, verr)
	}
	if err := (*f).Remove(); err != nil {
		_ = nf.Remove()
		return err
	}
	*f = nf
	j.acct.SpillRebuilds.Add(1)
	return nil
}

// rebuildRun reproduces one sub-partition's run from its source: a full
// pass over the source rows, keeping exactly the ones this level's hash
// scatters into sub. The original run was written in arrival order by the
// same filter, so the rebuilt run is row-identical to what the corrupt file
// held before the damage.
func (j *spillJoin) rebuildRun(level, sub int, side string, src *runSource) (*storage.SpillFile, error) {
	seq, cls, err := src.open()
	if err != nil {
		return nil, err
	}
	if cls != nil {
		defer cls() //nolint:errcheck // read handle; the data was already consumed
	}
	f, err := j.ctx.Spill.Create(fmt.Sprintf("p%d_l%d_s%d_%s_rb", j.part, level, sub, side))
	if err != nil {
		return nil, err
	}
	n := 0
	for {
		t, h, _, err := seq.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = f.Remove()
			return nil, err
		}
		if n++; n&0xfff == 0 {
			if err := j.ctx.Err(); err != nil {
				_ = f.Remove()
				return nil, err
			}
		}
		if spillSub(h, level) != sub {
			continue
		}
		if err := f.Append(t); err != nil {
			_ = f.Remove()
			return nil, err
		}
	}
	nb, err := f.Finish()
	if err != nil {
		_ = f.Remove()
		return nil, err
	}
	j.acct.SpillBytes.Add(nb)
	j.acct.SpillRows.Add(f.Rows())
	return f, nil
}

// inMemory joins a (build, probe) pair with the whole build side resident:
// the recursion leaf, and the over-budget fallback past spillMaxDepth.
func (j *spillJoin) inMemory(build, probe rowSeq) error {
	rb, err := j.loadBuild(build)
	if err != nil {
		return err
	}
	return j.probeResident(rb, probe)
}

// residentBuild is one pair's fully decoded build side, ready to hash.
type residentBuild struct {
	rows   []types.Tuple
	hashes []uint64
	bytes  int64
}

// loadBuild drains the build sequence into memory. Reading a run file to
// io.EOF verifies it end to end (block checksums, footer seal, row counts),
// and nothing has been emitted when an error surfaces here — which is what
// lets the recursion skip the separate pre-join CRC walk for
// in-memory-eligible build runs.
func (j *spillJoin) loadBuild(build rowSeq) (*residentBuild, error) {
	rb := &residentBuild{}
	n := 0
	for {
		t, h, sz, err := build.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if n++; n&0xfff == 0 {
			if err := j.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if sz < 0 {
			sz = int64(t.EncodedSize()) //dynopt:size-ok run-file rows carry no cached size; walked once on re-read
		}
		rb.rows = append(rb.rows, t)
		rb.hashes = append(rb.hashes, h)
		rb.bytes += sz
	}
	return rb, nil
}

// probeResident hashes a loaded build side and streams the probe sequence
// through it. Output rows flow to the sink from here on: any failure past
// this point cannot be retried without duplicating emitted rows.
func (j *spillJoin) probeResident(rb *residentBuild, probe rowSeq) error {
	j.grant.Reserve(rb.bytes)
	defer j.grant.Release(rb.bytes)
	ht := buildTable(rb.rows, rb.hashes, j.bCols)
	j.acct.BuildRows.Add(int64(len(rb.rows)))
	var probed int64
	n := 0
	for {
		t, h, _, err := probe.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if n++; n&0xfff == 0 {
			if err := j.ctx.Err(); err != nil {
				return err
			}
		}
		probed++
		j.out = ht.probeInto(j.out, &j.arena, t, h, j.pCols, j.buildFirst)
		if err := j.maybeFlush(); err != nil {
			return err
		}
	}
	j.acct.ProbeRows.Add(probed)
	return nil
}

// loadBuildFromFile decodes one sealed build run fully into memory. The
// fileSeq it drains checks every block CRC before decode and cross-checks
// the decoded row count against the writer's seal at EOF, so a clean return
// carries the same end-to-end guarantee as SpillFile.Verify — from one read
// of the file instead of two.
func (j *spillJoin) loadBuildFromFile(bf *storage.SpillFile) (*residentBuild, error) {
	br, err := bf.Reader()
	if err != nil {
		return nil, err
	}
	defer br.Close()
	return j.loadBuild(&fileSeq{r: br, keyCols: j.bCols, expect: bf.Rows()})
}

// loadBuildRecovering decodes one budget-fitting build run into memory,
// verifying it as it decodes instead of walking its checksums separately
// first. Corruption found during the load surfaces before any output row is
// emitted, so the same rebuild-once ladder as ensureIntact applies: rebuild
// from src, swap *bf to the fresh run, retry the load once.
func (j *spillJoin) loadBuildRecovering(level, sub int, bf **storage.SpillFile, src *runSource) (*residentBuild, error) {
	rb, err := j.loadBuildFromFile(*bf)
	if err == nil {
		return rb, nil
	}
	if !errors.Is(err, faults.ErrCorrupt) {
		return nil, err // device failure on the load read, not damage
	}
	if src == nil {
		return nil, fmt.Errorf("engine: corrupt build run with no replayable source: %w", err)
	}
	nf, rerr := j.rebuildRun(level, sub, "build", src)
	if rerr != nil {
		return nil, fmt.Errorf("engine: rebuilding corrupt build run: %w (%w)", rerr, faults.ErrCorrupt)
	}
	if rb, err = j.loadBuildFromFile(nf); err != nil {
		_ = nf.Remove()
		return nil, fmt.Errorf("engine: corruption recurred on the rebuilt build run: %w", err)
	}
	if err := (*bf).Remove(); err != nil {
		_ = nf.Remove()
		return nil, err
	}
	*bf = nf
	j.acct.SpillRebuilds.Add(1)
	return rb, nil
}

// probeSpilledRun streams one verified probe run through a loaded build
// side.
func (j *spillJoin) probeSpilledRun(rb *residentBuild, pf *storage.SpillFile) error {
	pr, err := pf.Reader()
	if err != nil {
		return err
	}
	defer pr.Close()
	return j.probeResident(rb, &fileSeq{r: pr, keyCols: j.pCols, expect: pf.Rows()})
}

// newFile opens a run file labeled with this partition, level, and
// sub-partition.
func (j *spillJoin) newFile(level, sub int, side string) (*storage.SpillFile, error) {
	return j.ctx.Spill.Create(fmt.Sprintf("p%d_l%d_s%d_%s", j.part, level, sub, side))
}

// probeInto streams one probe row through the table, appending one arena
// tuple per match to out — the single-row counterpart of joinInto for the
// spill path, where probe rows arrive from a stream instead of a slice.
//
//dynopt:hotpath
func (ht *hashTable) probeInto(out []types.Tuple, arena *types.Arena, pt types.Tuple, h uint64, probeCols []int, buildFirst bool) []types.Tuple {
	starts, idx, hs, bRows := ht.starts, ht.idx, ht.hashes, ht.rows
	singleKey := len(probeCols) == 1 && len(ht.keyCols) == 1
	var bCol0, pCol0 int
	if singleKey {
		bCol0, pCol0 = ht.keyCols[0], probeCols[0]
	}
	b := h & ht.mask
	for _, ri := range idx[starts[b]:starts[b+1]] {
		if hs[ri] != h {
			continue
		}
		bt := bRows[ri]
		if singleKey {
			if !bt[bCol0].Equal(pt[pCol0]) {
				continue
			}
		} else if !bt.KeysEqual(ht.keyCols, pt, probeCols) {
			continue
		}
		if buildFirst {
			out = append(out, arena.Concat(bt, pt))
		} else {
			out = append(out, arena.Concat(pt, bt))
		}
	}
	return out
}
