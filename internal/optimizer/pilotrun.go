package optimizer

import (
	"fmt"

	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/sqlpp"
	"dynopt/internal/stats"
	"dynopt/internal/types"
)

// DefaultPilotSampleK is the LIMIT applied to each pilot query.
const DefaultPilotSampleK = 500

// PilotRun reproduces the sampling approach of [23]: before planning, each
// base dataset is probed with a select-project pilot query (local predicates
// included) that stops after K output tuples. Statistics derived from the
// samples — sizes extrapolated from the observed selectivity, distinct
// counts scaled linearly — seed the planner; execution then proceeds with
// re-optimization points that adapt from accurate online feedback. The
// sampling cost is metered as part of the strategy's work, and the scaled
// distinct counts misfire on skewed non-PK/FK keys exactly as §7.2 reports.
type PilotRun struct {
	Cfg     core.Config
	SampleK int
}

// NewPilotRun returns the baseline with default configuration.
func NewPilotRun() *PilotRun {
	cfg := core.DefaultConfig()
	// Pilot runs replace the predicate push-down phase: predicates are
	// applied during sampling and inline during execution.
	cfg.PushDown = false
	return &PilotRun{Cfg: cfg, SampleK: DefaultPilotSampleK}
}

// Name implements core.Strategy.
func (s *PilotRun) Name() string { return "pilot-run" }

// Run implements core.Strategy.
func (s *PilotRun) Run(ctx *engine.Context, sql string) (*engine.Result, *core.Report, error) {
	return core.Metered(ctx, s.Name(), sql, func(r *core.Report) (*engine.Result, error) {
		q, err := sqlpp.Parse(sql)
		if err != nil {
			return nil, err
		}
		g, err := sqlpp.Analyze(q, ctx.Catalog.Resolver())
		if err != nil {
			return nil, err
		}
		pilotReg, err := s.samplePhase(ctx, g, r)
		if err != nil {
			return nil, err
		}
		// The pilot registry's row counts already reflect local predicates,
		// so the planner must not apply filter selectivities again.
		d := &core.Dynamic{Cfg: s.Cfg, PlannerReg: pilotReg, Label: s.Name(), FiltersPreApplied: true}
		return d.Body(ctx, sql, r)
	})
}

// samplePhase runs the pilot queries and builds the sample-derived registry.
func (s *PilotRun) samplePhase(ctx *engine.Context, g *sqlpp.Graph, r *core.Report) (*stats.Registry, error) {
	k := s.SampleK
	if k <= 0 {
		k = DefaultPilotSampleK
	}
	reg := ctx.Catalog.Stats().Clone()
	acct := ctx.Accounting()
	for _, alias := range g.Aliases {
		ref := g.Tables[alias]
		ds, ok := ctx.Catalog.Get(ref.Dataset)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown dataset %q", ref.Dataset)
		}
		filter := engine.FilterFor(g.Locals[alias])
		qualified := ds.Schema.Requalify(alias)
		var compiled expr.Compiled
		if filter != nil {
			var err error
			compiled, err = expr.Compile(filter, ctx.Env(qualified))
			if err != nil {
				return nil, err
			}
		}

		sample := stats.NewDatasetStats(ref.Dataset)
		var scanned int64
		var scannedBytes int64
		var sampleErr error
		kept := make([]types.Tuple, 0, min(int64(k), ds.RowCount())) // the sampled rows, observed column-wise below
		observe := func(t types.Tuple) bool {
			scanned++
			sz := int64(t.EncodedSize()) //dynopt:size-ok pilot sampling meters exactly the rows it touches; no cache exists for a sample prefix
			scannedBytes += sz
			if compiled != nil {
				v, err := compiled(t)
				if err != nil {
					sampleErr = err
					return false
				}
				if !v.IsTrue() {
					return true
				}
			}
			kept = append(kept, t)
			sample.ByteSize += sz
			return len(kept) < k
		}
	sampling:
		for p := range ds.Parts {
			if pgd := ds.Paged(); pgd != nil {
				// Paged dataset: stream pages in order, touching only the
				// prefix the sample needs.
				if err := pgd.EachRow(p, observe); err != nil {
					return nil, err
				}
			} else {
				for row := range ds.Parts[p] {
					if !observe(ds.Parts[p][row]) {
						break
					}
				}
			}
			if sampleErr != nil {
				return nil, sampleErr
			}
			if len(kept) >= k {
				break sampling
			}
		}
		produced := int64(len(kept))
		sample.RecordCount = produced
		sample.ObserveRows(ds.Schema, kept, nil)
		acct.ScanRows.Add(scanned)
		acct.ScanBytes.Add(scannedBytes)

		// Extrapolate: estimated qualifying rows.
		total := ds.RowCount()
		var estRows int64
		if produced < int64(k) {
			estRows = produced // dataset exhausted: exact
		} else if scanned > 0 {
			estRows = int64(float64(total) * float64(produced) / float64(scanned))
		}
		if estRows < 1 && produced > 0 {
			estRows = 1
		}
		pilot := stats.NewDatasetStats(ref.Dataset)
		pilot.RecordCount = estRows
		pilot.ByteSize = estRows * sample.AvgRowBytes()
		scale := float64(1)
		if produced > 0 {
			scale = float64(estRows) / float64(produced)
		}
		for fname, fs := range sample.Fields {
			scaled := int64(float64(fs.DistinctCount()) * scale)
			if scaled > estRows {
				scaled = estRows
			}
			if scaled < 1 {
				scaled = 1
			}
			pfs := pilot.Field(fname)
			pfs.Count = estRows
			pfs.DistinctOverride = scaled
			pfs.Quantiles.Merge(fs.Quantiles)
		}
		reg.Put(pilot)
		r.StagePlans = append(r.StagePlans,
			fmt.Sprintf("pilot %s: sampled %d/%d rows → est %d rows", alias, produced, scanned, estRows))
	}
	return reg, nil
}
