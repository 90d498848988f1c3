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

// partStream is a landed partition as a probe stream: all of its rows, with
// their prehashes, in one dense chunk.
type partStream struct {
	c    Chunk
	done bool
}

func (s *partStream) next() (*Chunk, error) {
	if s.done || len(s.c.Rows) == 0 {
		return nil, io.EOF
	}
	s.done = true
	return &s.c, nil
}

// runStream reads a sealed run back as a probe stream: it fills one reused
// dense chunk from the file and bulk-hashes the join keys (run records store
// the tuple only). Rows decode into into: the join's arena for a build run,
// whose rows stay under a table, or the stream's own slab for a probe run or
// a rebuild's source, whose rows die with their chunk — every consumer copies
// a match out (probeState.consume) or re-encodes the row (appendRow) — so the
// slab is reset and refilled per chunk. At EOF it cross-checks the rows
// actually decoded against the writer's in-memory count — the footer's
// consumer-side assertion, independent of anything stored on disk.
type runStream struct {
	r       *storage.SpillReader
	keyCols []int
	expect  int64 // rows the writer sealed (SpillFile.Rows)
	n       int64 // rows decoded so far
	rows    int   // chunk capacity
	into    *types.Arena
	slab    types.Arena
	width   int // values per row of the last chunk: the slab holds rows × width
	c       Chunk
}

//dynopt:hotpath
func (s *runStream) next() (*Chunk, error) {
	if s.into == &s.slab {
		s.slab.Reset()
		s.slab.Reserve(s.rows * s.width)
	}
	rows := s.c.Rows[:0]
	//dynopt:cancel-ok fills one chunk: the loops that pull chunks from this stream check ctx.Err() per chunk
	for len(rows) < s.rows {
		t, err := s.r.NextIn(s.into)
		if err == io.EOF {
			if s.n != s.expect {
				//dynopt:alloc-ok corruption error path, never taken on an intact run
				return nil, fmt.Errorf("engine: run read back %d rows but the writer appended %d: %w",
					s.n, s.expect, faults.ErrCorrupt)
			}
			break
		}
		if err != nil {
			return nil, err
		}
		s.n++
		rows = append(rows, t)
	}
	if len(rows) == 0 {
		return nil, io.EOF
	}
	s.width = len(rows[0])
	s.c.Rows, s.c.Hashes = rows, types.HashKeysInto(rows, s.keyCols, s.c.Hashes)
	return &s.c, nil
}

// readRun opens a sealed run for read-back at the execution's chunk
// capacity, on a stream from the join's free list when one is there. keep
// decodes the rows into the join's arena, for a build side whose rows outlive
// their chunk; otherwise they live in the stream's slab until the next chunk.
// The caller hands the stream back with closeRun.
func (j *spillJoin) readRun(f *storage.SpillFile, keyCols []int, keep bool) (*runStream, error) {
	r, err := f.Reader()
	if err != nil {
		return nil, err
	}
	var s *runStream
	if n := len(j.free); n > 0 {
		s, j.free = j.free[n-1], j.free[:n-1]
	} else {
		s = &runStream{}
	}
	s.r, s.keyCols, s.expect, s.n, s.rows = r, keyCols, f.Rows(), 0, j.ctx.chunkRows()
	s.into = &s.slab
	if keep {
		s.into = &j.arena
	}
	return s, nil
}

// closeRun closes a read-back stream's reader and keeps the stream — its
// chunk's row and hash slices, its slab — for the join's next readRun. Only
// a stream whose last chunk nobody reads any more may be handed back.
func (j *spillJoin) closeRun(s *runStream) {
	_ = s.r.Close() // returns the reader's frame; it cannot fail
	s.r = nil
	j.free = append(j.free, s)
}

// runSource names where a spilled run's rows came from, so a run found
// corrupt on read-back can be rebuilt: at level 0 a way to read the input
// again (the in-memory build partition; a probe that is a relation's
// partition), below it the parent level's run file (still on disk until its
// own pair completes). A nil *runSource marks a side with no replayable
// source — a probe fed by a scan or the scatter, whose chunks were consumed
// as they arrived.
type runSource struct {
	reopen  func() (probeStream, error)
	file    *storage.SpillFile
	keyCols []int
}

// spillJoin carries one partition's join through its recursion levels.
type spillJoin struct {
	ctx    *Context
	acct   *cluster.Accounting
	grant  *cluster.Grant
	part   int   // partition index, for run-file labels
	budget int64 // per-node resident build budget
	bCols  []int // build-side key columns

	// w is the one probe loop: every level and every read-back pair sets its
	// table and streams probe chunks through it, so the output buffer and
	// arena are shared by the whole partition. It has no filter, and its key
	// hasher also hashes the unhashed chunks the hybrid phase routes (prehash).
	w probeState
	// Per-chunk scratch of the hybrid probe phase: the live rows (and their
	// hashes) that stay resident, and the narrowed copy of a projected row on
	// its way to a run file.
	sel     []int32
	hashes  []uint64
	scratch types.Tuple
	// arena holds the rows of build runs read back: they stay under a table
	// (or in a resident sub-partition) after their chunk is gone.
	arena types.Arena
	// free holds closed read-back streams for reuse (readRun, closeRun).
	free []*runStream
	// noSpill marks the degraded mode entered when the spill device fails
	// before any run file landed: the join holds its whole build side
	// resident — reserving the bytes but ignoring budget and pressure, like
	// the depth-capped fallback — instead of failing the query.
	noSpill bool
}

// joinPartition is the hash join's per-partition worker, and the one place
// the spill budget decides how a partition is joined. The probe side arrives
// chunk-by-chunk and output rows flow into the sink as they are produced.
// With no budget (SpillBudget 0: nothing really spills), or when the build
// side fits it and the governor has room, the whole build side goes under one
// table and probe chunks stream through it; otherwise the dynamic hybrid hash
// join holds at most the budget of build rows resident and evicts the rest
// to run files — a build side that fits simply never evicts. filter is the
// join's filter for the one-table arm; the caller passes nil under a budget,
// and the hybrid join never filters: what reaches a run file is every probe
// row of a spilled sub-partition. reopen, when the probe can be read again,
// starts a second pass over it (nil: it cannot); hint is the probe
// partition's encoded size when its source knew it, else -1.
func joinPartition(ctx *Context, p int,
	bRows []types.Tuple, bHash []uint64, bSize []int64, bCols []int, buildBytes int64, filter *keyFilter,
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
		acct.BuildRows.Add(int64(len(bRows)))
		return probePartition(ctx, p, buildTable(bRows, bHash, bCols), filter, buildBytes, probe, hint, pCols, buildFirst, sink)
	}
	j := &spillJoin{
		ctx: ctx, acct: acct, grant: gr, part: p, budget: budget, bCols: bCols,
		w: newProbeState(ctx, p, nil, nil, pCols, buildFirst, sink),
		// Never nil: a chunk whose live rows all went to runs keeps an empty
		// selection and empty hashes, and a nil one would read as "every row is
		// live" or "not hashed yet".
		sel:    make([]int32, 0, ctx.chunkRows()),
		hashes: make([]uint64, 0, ctx.chunkRows()),
	}
	build := func() (probeStream, error) {
		return &partStream{c: Chunk{Rows: bRows, Hashes: bHash}}, nil
	}
	// A probe with no second pass leaves pSrc nil: a corrupt probe run at
	// level 0 then fails classified rather than rebuilding; the build side
	// recovers as usual.
	var pSrc *runSource
	if reopen != nil {
		pSrc = &runSource{reopen: reopen}
	}
	bst, _ := build() // cannot fail: the partition is in memory
	if err := j.run(0, bst, bSize, probe, &runSource{reopen: build}, pSrc); err != nil {
		return err
	}
	acct.ProbeRows.Add(j.w.probeRows)
	return nil
}

// run executes one recursion level of the dynamic hybrid hash join. Both
// sides arrive as chunk streams; the build side's chunks are dense and at
// schema width (a landed partition, or a run read back), and bSizes, when
// non-nil, holds its rows' encoded sizes in stream order (level 0: the
// exchange computed them). bSrc and pSrc name where the build/probe rows came
// from, for rebuilding a run found corrupt on read-back (nil: that side is
// not replayable).
func (j *spillJoin) run(level int, build probeStream, bSizes []int64, probe probeStream, bSrc, pSrc *runSource) error {
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if level > spillMaxDepth {
		// Pathological skew: the same keys refuse to split any further.
		// Join the pair in memory, over budget, rather than recurse forever.
		rb, err := j.loadBuild(build)
		if err != nil {
			return err
		}
		return j.joinLoaded(rb, probe)
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
	// place scatters one build row into its sub-partition, evicting the
	// largest resident victim whenever the row would push the resident set
	// over the per-node budget (so peak resident build memory never exceeds
	// it), and shedding one victim on governor pressure. sz < 0 is a size
	// nobody computed yet: the row is walked only if it stays resident.
	place := func(t types.Tuple, h uint64, sz int64) error {
		s := spillSub(h, level)
		if bFile[s] != nil {
			return bFile[s].Append(t)
		}
		if sz < 0 {
			sz = int64(t.EncodedSize()) //dynopt:size-ok run-file rows (and a build side the exchange never moved) carry no cached size; walked once
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
				return bFile[s].Append(t)
			}
		}
		rows[s] = append(rows[s], t)
		hashes[s] = append(hashes[s], h)
		bytes[s] += sz
		resident += sz
		if !j.grant.Reserve(sz) && !j.noSpill {
			if v := largest(); v >= 0 {
				return tryEvict(v)
			}
		}
		return nil
	}

	// Build phase. A landed partition is one chunk however long, so
	// cancellation is checked on a row stride, not per chunk.
	n := 0
	for {
		c, err := build.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for k, t := range c.Rows {
			if n&0xfff == 0 {
				if err := j.ctx.Err(); err != nil {
					return err
				}
			}
			sz := int64(-1)
			if bSizes != nil {
				sz = bSizes[n]
			}
			n++
			if err := place(t, c.Hashes[k], sz); err != nil {
				return err
			}
		}
	}
	spilled, err := j.seal(bFile[:])
	if err != nil {
		return err
	}

	// Hybrid probe phase: the resident sub-partitions go under one in-memory
	// table. Per probe chunk — hashed first if it arrived unhashed — the live
	// rows whose sub-partition spilled are appended to that sub-partition's
	// probe run, and the rest — the same rows, selection narrowed, hashes
	// compacted — take the probe loop.
	var resRows []types.Tuple
	var resHashes []uint64
	for s := 0; s < spillFanout; s++ {
		resRows = append(resRows, rows[s]...)
		resHashes = append(resHashes, hashes[s]...)
	}
	j.w.ht = buildTable(resRows, resHashes, j.bCols)
	j.acct.BuildRows.Add(int64(len(resRows)))

	var pFile [spillFanout]*storage.SpillFile
	var kept Chunk
	for {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		c, err := probe.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if spilled {
			j.sel, j.hashes = j.sel[:0], j.hashes[:0]
			for k, h := range j.prehash(c) {
				r := c.liveAt(k)
				s := spillSub(h, level)
				if bFile[s] == nil {
					j.sel, j.hashes = append(j.sel, int32(r)), append(j.hashes, h)
					continue
				}
				if pFile[s] == nil {
					if pFile[s], err = j.newFile(level, s, "probe"); err != nil {
						return err
					}
				}
				if err := j.appendRow(pFile[s], c, r); err != nil {
					return err
				}
			}
			kept = Chunk{Rows: c.Rows, Sel: j.sel, Proj: c.Proj, Hashes: j.hashes}
			c = &kept
		}
		if err := j.w.consume(c); err != nil {
			return err
		}
	}

	// The resident set is done; return its memory before recursing so the
	// read-back levels can use the budget.
	j.grant.Release(resident)
	resRows, resHashes, j.w.ht = nil, nil, nil
	rows, hashes = [spillFanout][]types.Tuple{}, [spillFanout][]uint64{}
	if _, err := j.seal(pFile[:]); err != nil {
		return err
	}

	// Recursive pass: join every spilled (build, probe) pair on read-back.
	for s := 0; s < spillFanout; s++ {
		if bFile[s] == nil {
			continue
		}
		if err := j.ctx.Err(); err != nil {
			return err
		}
		// A pair with no rows on one side cannot produce matches.
		if pFile[s] != nil && pFile[s].Rows() > 0 && bFile[s].Rows() > 0 {
			if err := j.joinPair(level, s, &bFile[s], &pFile[s], bSrc, pSrc); err != nil {
				return err
			}
		}
		// Run files we created and sealed ourselves: a failed unlink means
		// the disk-budget accounting is off, so surface it rather than let
		// the end-of-query Sweep paper over it.
		if err := bFile[s].Remove(); err != nil {
			return err
		}
		if pFile[s] != nil {
			if err := pFile[s].Remove(); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendRow appends live row r of a probe chunk to a run, at schema width: a
// projected row is narrowed through one reused scratch tuple, which the run
// writer encodes before returning.
func (j *spillJoin) appendRow(f *storage.SpillFile, c *Chunk, r int) error {
	t := c.Rows[r]
	if c.Proj != nil {
		j.scratch = j.scratch[:0]
		for _, col := range c.Proj {
			j.scratch = append(j.scratch, t[col])
		}
		t = j.scratch
	}
	return f.Append(t)
}

// prehash returns a probe chunk's key prehashes: the ones it arrived with, or,
// for a level-0 chunk straight off its partition's cursor, computed here
// (valid until the next call). Build chunks always arrive hashed.
func (j *spillJoin) prehash(c *Chunk) []uint64 {
	if c.Hashes != nil {
		return c.Hashes
	}
	return j.w.keys.hash(c)
}

// joinPair joins one spilled (build, probe) run pair on read-back. Probe
// runs — and build runs that must recurse — are verified (checksums, footer
// seal, row counts) before the pair is joined; a corrupt run is rebuilt once
// from its source. The verify-then-join order matters for those, because
// corruption discovered mid-join could not be retried without duplicating
// rows already streamed to the sink. A build run that already fits the budget
// skips the separate CRC walk: loading it decodes it fully — checked block by
// block — before the first probe row streams, so corruption still surfaces
// with nothing emitted and the same rebuild-once ladder applies
// (verify-as-you-decode, one read of the run instead of two). The build side
// reads first either way, so damage on the device surfaces against the side
// that can rebuild.
func (j *spillJoin) joinPair(level, sub int, bf, pf **storage.SpillFile, bSrc, pSrc *runSource) error {
	var rb *residentBuild
	check := (*storage.SpillFile).Verify
	if (*bf).Bytes() <= j.budget {
		check = func(f *storage.SpillFile) error {
			build, err := j.readRun(f, j.bCols, true)
			if err != nil {
				return err
			}
			defer j.closeRun(build)
			rb, err = j.loadBuild(build)
			return err
		}
	}
	if err := j.ensureIntact(level, sub, "build", bf, bSrc, check); err != nil {
		return err
	}
	if err := j.ensureIntact(level, sub, "probe", pf, pSrc, (*storage.SpillFile).Verify); err != nil {
		return err
	}
	var build *runStream
	if rb == nil {
		var err error
		if build, err = j.readRun(*bf, j.bCols, true); err != nil {
			return err
		}
		defer j.closeRun(build)
	}
	probe, err := j.readRun(*pf, j.w.pCols, false)
	if err != nil {
		return err
	}
	defer j.closeRun(probe)
	if rb != nil {
		return j.joinLoaded(rb, probe)
	}
	// One level deeper: the pair's own run files (still on disk until this
	// call returns) are the rebuild sources for the child level.
	return j.run(level+1, build, nil, probe,
		&runSource{file: *bf, keyCols: j.bCols},
		&runSource{file: *pf, keyCols: j.w.pCols})
}

// ensureIntact holds one sealed run to check before its pair is joined —
// SpillFile.Verify end to end, or a full load that verifies as it decodes —
// rebuilding the run once from src when the check finds it corrupt. *f is
// replaced by the rebuilt file (the corrupt original is unlinked); the
// rebuild is metered as SpillRebuilds. Failure is classified: corruption
// with no replayable source, a failed rebuild, or corruption recurring on the
// rebuilt run all surface wrapped in faults.ErrCorrupt — never a silent short
// read.
func (j *spillJoin) ensureIntact(level, sub int, side string, f **storage.SpillFile, src *runSource, check func(*storage.SpillFile) error) error {
	err := check(*f)
	if err == nil {
		return nil
	}
	if !errors.Is(err, faults.ErrCorrupt) {
		return err // device failure on the read, not damage
	}
	if src == nil {
		return fmt.Errorf("engine: corrupt %s run with no replayable source: %w", side, err)
	}
	nf, rerr := j.rebuildRun(level, sub, side, src)
	if rerr != nil {
		return fmt.Errorf("engine: rebuilding corrupt %s run: %w (%w)", side, rerr, faults.ErrCorrupt)
	}
	if verr := check(nf); verr != nil {
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
	var st probeStream
	if src.file != nil {
		rs, err := j.readRun(src.file, src.keyCols, false)
		if err != nil {
			return nil, err
		}
		defer j.closeRun(rs)
		st = rs
	} else {
		var err error
		if st, err = src.reopen(); err != nil {
			return nil, err
		}
	}
	f, err := j.ctx.Spill.Create(fmt.Sprintf("p%d_l%d_s%d_%s_rb", j.part, level, sub, side))
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*storage.SpillFile, error) {
		_ = f.Remove()
		return nil, err
	}
	for {
		if err := j.ctx.Err(); err != nil {
			return fail(err)
		}
		c, err := st.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		for k, h := range j.prehash(c) {
			if spillSub(h, level) != sub {
				continue
			}
			if err := j.appendRow(f, c, c.liveAt(k)); err != nil {
				return fail(err)
			}
		}
	}
	if _, err := j.seal([]*storage.SpillFile{f}); err != nil {
		return fail(err)
	}
	return f, nil
}

// residentBuild is one pair's fully decoded build side, ready to hash.
type residentBuild struct {
	rows   []types.Tuple
	hashes []uint64
	bytes  int64
}

// loadBuild drains a build stream (dense chunks) into memory. Reading a run
// file to io.EOF verifies it end to end (block checksums, footer seal, row
// counts), and nothing has been emitted when an error surfaces here — which
// is what lets the recursion skip the separate pre-join CRC walk for
// in-memory-eligible build runs.
func (j *spillJoin) loadBuild(build probeStream) (*residentBuild, error) {
	rb := &residentBuild{}
	for {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		c, err := build.next()
		if err == io.EOF {
			return rb, nil
		}
		if err != nil {
			return nil, err
		}
		rb.rows = append(rb.rows, c.Rows...)
		rb.hashes = append(rb.hashes, c.Hashes...)
		for _, t := range c.Rows {
			rb.bytes += int64(t.EncodedSize()) //dynopt:size-ok run-file rows carry no cached size; walked once on re-read
		}
	}
}

// joinLoaded hashes a loaded build side and streams the probe through it: the
// recursion leaf, and the over-budget fallback past spillMaxDepth. Output
// rows flow to the sink from here on: any failure past this point cannot be
// retried without duplicating emitted rows.
func (j *spillJoin) joinLoaded(rb *residentBuild, probe probeStream) error {
	j.grant.Reserve(rb.bytes)
	defer j.grant.Release(rb.bytes)
	j.w.ht = buildTable(rb.rows, rb.hashes, j.bCols)
	j.acct.BuildRows.Add(int64(len(rb.rows)))
	return j.w.drain(probe)
}

// seal finishes every run file in files (nil entries are sub-partitions that
// never spilled), charging spill accounting the actual bytes and rows
// written, and reports whether there was any.
func (j *spillJoin) seal(files []*storage.SpillFile) (sealed bool, err error) {
	for _, f := range files {
		if f == nil {
			continue
		}
		nb, err := f.Finish()
		if err != nil {
			return sealed, err
		}
		j.acct.SpillBytes.Add(nb)
		j.acct.SpillRows.Add(f.Rows())
		sealed = true
	}
	return sealed, nil
}

// newFile opens a run file labeled with this partition, level, and
// sub-partition.
func (j *spillJoin) newFile(level, sub int, side string) (*storage.SpillFile, error) {
	return j.ctx.Spill.Create(fmt.Sprintf("p%d_l%d_s%d_%s", j.part, level, sub, side))
}
