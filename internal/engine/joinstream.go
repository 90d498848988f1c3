package engine

import (
	"fmt"
	"io"

	"dynopt/internal/expr"
	"dynopt/internal/faults"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// This file holds the join executors, one per algorithm: both sides arrive
// as chunk Sources — the build side lands under a hash table either way, a
// scan feeding it fused into the exchange; an index join's outer lands the way
// a broadcast build does and meets the inner's index instead of a table — and
// the output flows into a Sink chunk-by-chunk: one pass from scan to sink with
// no probe-side relation and no output re-walk. JoinInto (exec.go) is the one
// dispatcher over them; the Relation-in/Relation-out entry points in join.go
// are these executors over SourceOf views, collected into a relation.

// probeState runs one destination partition's probe loop over a hash
// table: per chunk, join matches into a reusable buffer and emit. Probe rows
// are read where they lie — through the chunk's selection and projection
// map — and only a match is ever copied, once, into its output tuple. A chunk
// that arrives unhashed (straight off its partition's cursor) is first
// narrowed through the join filter, when there is one, and only the
// survivors are hashed. One instance per partition worker — the spilling join
// swaps ht per level and read-back pair; buffers are reused across chunks.
type probeState struct {
	ctx        *Context
	ht         *hashTable
	filter     *keyFilter // nil: every probe row is hashed and probed
	pCols      []int      // probe key columns, schema offsets
	buildFirst bool
	sink       Sink
	p          int

	keys       keyHasher // hashes the chunks that arrive unhashed
	arena      types.Arena
	rows       []types.Tuple
	phys       []int   // scratch: pCols mapped through the current chunk's Proj
	keep       []bool  // scratch: the filter's marks over the live rows
	sel        []int32 // scratch: the filter's survivors, as a selection
	narrowed   Chunk
	probeRows  int64
	probeBytes int64
}

func newProbeState(ctx *Context, p int, ht *hashTable, filter *keyFilter, pCols []int, buildFirst bool, sink Sink) probeState {
	return probeState{ctx: ctx, ht: ht, filter: filter, pCols: pCols, buildFirst: buildFirst, sink: sink, p: p,
		keys: keyHasher{keyCols: pCols}}
}

//dynopt:hotpath
func (w *probeState) consume(c *Chunk) error {
	w.probeRows += int64(c.Live() + c.Skipped)
	w.probeBytes += c.Bytes
	hashes := c.Hashes
	if hashes == nil {
		if w.filter != nil {
			w.keep = w.filter.mark(c, w.filter.probeCol(c, w.pCols), w.keep)
			w.sel = w.sel[:0]
			for k, ok := range w.keep {
				if ok {
					w.sel = append(w.sel, int32(c.liveAt(k)))
				}
			}
			if len(w.sel) == 0 {
				return nil
			}
			if len(w.sel) < len(w.keep) {
				w.narrowed = *c
				w.narrowed.Sel = w.sel
				c = &w.narrowed
			}
		}
		hashes = w.keys.hash(c)
	}
	// No counting pre-pass: a chunk's output lives in a reusable buffer whose
	// capacity converges after a few chunks, and the arena grows
	// geometrically — so the probe pays one pass over the buckets, not two.
	pCols := physCols(c.Proj, w.pCols, &w.phys)
	w.rows = w.ht.joinInto(w.rows[:0], &w.arena, c.Rows, c.Sel, c.Proj, hashes, pCols, w.buildFirst)
	if len(w.rows) == 0 {
		return nil
	}
	return w.sink.Emit(w.p, w.rows)
}

func (w *probeState) drain(st probeStream) error {
	for {
		if err := w.ctx.Err(); err != nil {
			return err
		}
		c, err := st.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := w.consume(c); err != nil {
			return err
		}
	}
}

// probePartition streams one partition's probe side through a finished build
// table and the join's filter (nil: none) — the resident hash join's worker,
// and the broadcast join's — and charges the simulated spill model for a build
// side of buildBytes. hint is the probe partition's encoded size when its
// source knew it, else -1.
func probePartition(ctx *Context, p int, ht *hashTable, filter *keyFilter, buildBytes int64,
	probe probeStream, hint int64, pCols []int, buildFirst bool, sink Sink) error {
	if err := ctx.Faults.Fire(faults.Point("probe.drain")); err != nil {
		return err
	}
	w := newProbeState(ctx, p, ht, filter, pCols, buildFirst, sink)
	if err := w.drain(probe); err != nil {
		return err
	}
	ctx.Accounting().ProbeRows.Add(w.probeRows)
	if hint < 0 {
		hint = w.probeBytes
	}
	meterSpill(ctx, buildBytes, hint, int64(len(ht.rows)), w.probeRows)
	return nil
}

// HashJoinStream is the repartitioning hash join of §3: the build source is
// hash-exchanged whole (exchange: it must land under the tables anyway, and a
// scan feeding it fuses into the exchange's first pass), the probe source is
// scattered chunk-wise to its destination partitions (or piped straight
// through when already partitioned on the keys), and each destination joins
// arriving chunks immediately (joinPartition), emitting output chunks into
// the sink. buildFirst selects whether build columns form the left half of
// the output schema.
func HashJoinStream(ctx *Context, buildSrc, probe Source, buildKeys, probeKeys []string, buildFirst bool, mk SinkFactory) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		return fmt.Errorf("engine: hash join needs aligned non-empty keys, got %v / %v", buildKeys, probeKeys)
	}
	n := probe.Parts()
	if buildSrc.Parts() != n {
		return fmt.Errorf("engine: partition count mismatch %d vs %d", buildSrc.Parts(), n)
	}
	bCols, err := resolveKeys(buildSrc.Schema(), buildKeys)
	if err != nil {
		return err
	}
	pCols, err := resolveKeys(probe.Schema(), probeKeys)
	if err != nil {
		return err
	}
	spilling := ctx.SpillBudget() > 0
	build, bHash, bSize, err := exchange(ctx, buildSrc, bCols, spilling)
	if err != nil {
		return err
	}
	// The landed build side filters the probe — but not under a spill budget,
	// where run-file I/O is metered from what is actually written and a
	// filter would change what reaches a run file.
	var filter *keyFilter
	if !spilling {
		filter = newKeyFilter(build.Parts, bCols)
	}
	var outSchema *types.Schema
	var outPartCols []int
	if buildFirst {
		outSchema = build.Schema.Concat(probe.Schema())
		outPartCols = append([]int(nil), bCols...)
	} else {
		outSchema = probe.Schema().Concat(build.Schema)
		outPartCols = append([]int(nil), pCols...)
	}
	sink, err := mk(outSchema, outPartCols)
	if err != nil {
		return err
	}

	// A probe that already landed can be read twice. When the join may spill it
	// is therefore exchanged as a relation and read in place by the local path
	// below, which lets the spilling join rebuild a probe run found corrupt on
	// read-back from the partition it came from; a probe consumed chunk by
	// chunk off the scatter can only fail the attempt.
	replayable := landed(probe) != nil
	if spilling && replayable && n > 1 && !colsMatch(probe.PartCols(), pCols) {
		exchanged, _, _, err := exchange(ctx, probe, pCols, false)
		if err != nil {
			return err
		}
		probe = SourceOf(ctx, exchanged)
	}
	worker := func(p int, filter *keyFilter, st probeStream, reopen func() (probeStream, error), hint int64) error {
		return joinPartition(ctx, p, build.Parts[p], bHash[p], partSizes(bSize, p), bCols, build.PartBytes(p), filter,
			st, reopen, hint, pCols, buildFirst, sink)
	}

	if colsMatch(probe.PartCols(), pCols) || n == 1 {
		// Exchange skipped (§3's pre-partitioned optimization) or a single
		// partition: each probe partition pipes straight into its worker,
		// which applies the filter unless the cursor took it (openLocal).
		return forEachPart(n, func(p int) error {
			hint := probe.PartBytesHint(p)
			// Probe bytes feed only the simulated spill model; a probe it will
			// not charge is never sized.
			wantBytes := hint < 0 && simSpills(ctx, build.PartBytes(p))
			st, pf, err := openLocal(probe, p, filter, pCols, wantBytes)
			if err != nil {
				return err
			}
			var reopen func() (probeStream, error)
			if replayable {
				// A second open of the same cursor kind makes the same
				// pushdown decision, so the worker's filter stays right.
				reopen = func() (probeStream, error) {
					st, _, err := openLocal(probe, p, filter, pCols, wantBytes)
					return st, err
				}
			}
			return worker(p, pf, st, reopen, hint)
		})
	}
	// The consumers read chunk bytes under the same condition as the local
	// probe above: the simulated model needs them for a build partition over
	// budget, nobody else looks — the spilling join budgets by the build
	// side's sizes, which come from its exchange. A row that changes partition
	// is sized for shuffle metering either way.
	wantBytes := false
	for p := 0; p < n && !wantBytes; p++ {
		wantBytes = simSpills(ctx, build.PartBytes(p))
	}
	return runScatter(ctx, probe, pCols, filter, wantBytes, func(p int, st probeStream) error {
		return worker(p, filter, st, nil, -1)
	})
}

// broadcastRows gathers a landed small side — a broadcast join's build, an
// index join's outer — into the one slice every node reads, partitions in
// order, and meters the n-1 copies that cross the network.
func broadcastRows(ctx *Context, small *Relation, n int) []types.Tuple {
	all := make([]types.Tuple, 0, small.RowCount())
	for _, p := range small.Parts {
		all = append(all, p...)
	}
	if n > 1 {
		acct := ctx.Accounting()
		acct.BroadcastRows.Add(int64(len(all)) * int64(n-1))
		acct.BroadcastBytes.Add(small.ByteSize() * int64(n-1))
	}
	return all
}

// BroadcastJoinStream lands the (small) build source and replicates it to
// every probe partition — metering (n-1)× its bytes as broadcast traffic —
// then streams each probe partition through the shared table in place, with
// no probe movement at all (§3).
func BroadcastJoinStream(ctx *Context, buildSrc, probe Source, buildKeys, probeKeys []string, buildFirst bool, mk SinkFactory) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		return fmt.Errorf("engine: broadcast join needs aligned non-empty keys, got %v / %v", buildKeys, probeKeys)
	}
	n := probe.Parts()
	if buildSrc.Parts() != n {
		return fmt.Errorf("engine: partition count mismatch %d vs %d", buildSrc.Parts(), n)
	}
	bCols, err := resolveKeys(buildSrc.Schema(), buildKeys)
	if err != nil {
		return err
	}
	pCols, err := resolveKeys(probe.Schema(), probeKeys)
	if err != nil {
		return err
	}
	build, err := materializeSource(ctx, buildSrc)
	if err != nil {
		return err
	}
	if err := checkPartRows(build.Parts); err != nil {
		return err
	}
	buildBytes := build.ByteSize()
	if budget := ctx.SpillBudget(); budget > 0 {
		// Under real memory governance an over-budget build side may not be
		// copied to every node: every copy would blow the per-node grant at
		// once, with nothing to evict (broadcast tables cannot spill without
		// losing matches). Fall back to the partitioned hybrid hash join,
		// which spills gracefully. The same fallback fires when the governor
		// is out of aggregate capacity.
		hold := buildBytes * int64(n)
		if buildBytes > budget {
			return HashJoinStream(ctx, SourceOf(ctx, build), probe, buildKeys, probeKeys, buildFirst, mk)
		}
		if !ctx.Grant.Reserve(hold) {
			ctx.Grant.Release(hold)
			return HashJoinStream(ctx, SourceOf(ctx, build), probe, buildKeys, probeKeys, buildFirst, mk)
		}
		defer ctx.Grant.Release(hold)
	}

	all := broadcastRows(ctx, build, n)
	if len(all) > maxPartRows {
		return fmt.Errorf("engine: broadcast build side has %d rows, exceeding the %d-row limit of int32 row indexing", len(all), maxPartRows)
	}
	ht := buildTable(all, types.HashKeysInto(all, bCols, nil), bCols)
	ctx.Accounting().BuildRows.Add(int64(len(all)) * int64(n)) // each partition builds its copy
	// A broadcast probe never spills, so it is filtered under any budget.
	filter := newKeyFilter([][]types.Tuple{all}, bCols)

	var outSchema *types.Schema
	if buildFirst {
		outSchema = build.Schema.Concat(probe.Schema())
	} else {
		outSchema = probe.Schema().Concat(build.Schema)
	}
	// The probe side never moves; its partitioning columns survive at
	// shifted offsets when the build side forms the left half.
	var outPartCols []int
	if pc := probe.PartCols(); pc != nil {
		offset := 0
		if buildFirst {
			offset = build.Schema.Len()
		}
		outPartCols = make([]int, len(pc))
		for i, c := range pc {
			outPartCols[i] = c + offset
		}
	}
	sink, err := mk(outSchema, outPartCols)
	if err != nil {
		return err
	}

	// Probe sizes feed only the simulated spill model, which is inert unless
	// the broadcast build side exceeds the per-node budget.
	modelSpill := simSpills(ctx, buildBytes)
	return forEachPart(n, func(p int) error {
		hint := probe.PartBytesHint(p)
		st, pf, err := openLocal(probe, p, filter, pCols, modelSpill && hint < 0)
		if err != nil {
			return err
		}
		// Each partition holds a full copy of the broadcast build side.
		return probePartition(ctx, p, ht, pf, buildBytes, st, hint, pCols, buildFirst, sink)
	})
}

// IndexNLJoinStream lands the (small, filtered) outer source as a broadcast
// join lands its build side — metering (n-1)× its bytes as broadcast traffic —
// and walks it through each partition of the inner dataset's partition-local
// secondary index, a chunk's worth of outer rows per probe batch, so a paged
// inner sees one page-ordered fetch per full chunk however thinly the outer
// was spread over its partitions. The inner never moves. The outer is bounded
// by the rule that bounds a broadcast build (ChooseAlgo picks this join only
// when its estimated bytes fit the broadcast threshold). outerFirst selects
// whether outer columns form the left half of the output schema.
func IndexNLJoinStream(ctx *Context, outerSrc Source, inner *storage.Dataset, innerAlias string,
	outerKeys, innerKeys []string, innerFilter expr.Expr, outerFirst bool, mk SinkFactory) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(outerKeys) != len(innerKeys) || len(outerKeys) == 0 {
		return fmt.Errorf("engine: index join needs aligned non-empty keys")
	}
	idx, ok := inner.Indexes[innerKeys[0]]
	if !ok {
		return fmt.Errorf("engine: dataset %s has no index on %q", inner.Name, innerKeys[0])
	}
	n := len(inner.Parts)
	if outerSrc.Parts() != n {
		return fmt.Errorf("engine: partition count mismatch %d vs %d", outerSrc.Parts(), n)
	}
	if err := checkPartRows(inner.Parts); err != nil {
		return err
	}
	oCols, err := resolveKeys(outerSrc.Schema(), outerKeys)
	if err != nil {
		return err
	}
	innerSchema := inner.Schema.Requalify(innerAlias)
	iCols := make([]int, len(innerKeys))
	for i, k := range innerKeys {
		ci, ok := inner.Schema.Index(k)
		if !ok {
			return fmt.Errorf("engine: inner key %q not in %s", k, inner.Schema)
		}
		iCols[i] = ci
	}
	var pred expr.Compiled
	if innerFilter != nil {
		pred, err = expr.Compile(innerFilter, ctx.Env(innerSchema))
		if err != nil {
			return err
		}
	}
	outer, err := materializeSource(ctx, outerSrc)
	if err != nil {
		return err
	}

	var outSchema *types.Schema
	offset := 0
	if outerFirst {
		outSchema = outer.Schema.Concat(innerSchema)
		offset = outer.Schema.Len()
	} else {
		outSchema = innerSchema.Concat(outer.Schema)
	}
	// Inner partitioning survives (inner rows do not move), at shifted offsets
	// when the outer forms the left half.
	var outPartCols []int
	if pf := inner.PartitionFields(); len(pf) > 0 {
		cols := make([]int, 0, len(pf))
		ok := true
		for _, f := range pf {
			ci, found := inner.Schema.Index(f)
			if !found {
				ok = false
				break
			}
			cols = append(cols, ci+offset)
		}
		if ok {
			outPartCols = cols
		}
	}
	sink, err := mk(outSchema, outPartCols)
	if err != nil {
		return err
	}

	all := broadcastRows(ctx, outer, n)
	step := ctx.chunkRows()
	return forEachPart(n, func(p int) error {
		if err := ctx.Faults.Fire(faults.Point("probe.drain")); err != nil {
			return err
		}
		pr := newIndexProbe(ctx, inner, idx, p, oCols, iCols, pred, outerFirst, outSchema.Len())
		var rows []types.Tuple
		for off := 0; off < len(all); off += step {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			rows, err = pr.join(all[off:min(off+step, len(all))], rows)
			if err != nil {
				return err
			}
			if len(rows) > 0 {
				if err := sink.Emit(p, rows); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
