// Command benchmark is the repository's one benchmark: four fixed-work
// workloads driven through the public dynopt API for end-to-end numbers, and
// (with -trace 1) timed calls into the internal packages' exported functions
// for per-layer numbers. One process runs one workload once. README.md has
// the metric definitions; BENCHMARK.json at the repository root has the
// bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynopt"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

type report struct {
	metrics []metric
}

func (r *report) emit(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name, unit, value, note})
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	all []metric // everything this run computed, reported or not
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sf       int
	pin      bool

	// Set by the smoke test only, never from the command line: each changes
	// what the reported numbers mean.
	rounds int  // exactly this many timed rounds instead of seconds
	setups int  // set-ups (default 3 untraced, 1 traced)
	quick  bool // layer pass at its minimum repetitions
}

func main() {
	var o options
	var aa, trace int
	flag.StringVar(&o.workload, "workload", "", "adhoc, serve, spill or paged")
	flag.Int64Var(&o.seed, "seed", 1, "shuffles the op order of every round; data and counts do not depend on it")
	flag.Float64Var(&o.seconds, "seconds", 20, "timed seconds: whole rounds repeat until their op walls add up to this (a traced run spends half of it on rounds)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: record spans, run the fidelity and layer passes, report the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and the span file; everything the run writes stays inside it")
	flag.IntVar(&o.sf, "sf", 0, "override the workload's scale factor (with -pin, for the smoke test's sf 1 digests)")
	flag.BoolVar(&o.pin, "pin", false, "rewrite benchmark/testdata/digests.json entries for this workload's scale from this run")
	flag.IntVar(&aa, "aa", 0, "A/A mode: two back-to-back sets of N runs of the workload, compared against the bounds in BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0

	var err error
	var res *result
	if aa > 0 {
		err = runAA(o, aa)
	} else if res, err = runOnce(o, os.Stdout); err == nil {
		line, merr := json.Marshal(res)
		if merr != nil { // a metric that is not a number: report the failure, not a blank line
			fmt.Fprintln(os.Stderr, "benchmark:", merr)
			res.Correct, res.Metrics = false, map[string]metricValue{}
			line, _ = json.Marshal(res)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOnce runs one workload once and returns what the last output line
// holds; the human-readable table goes to out.
func runOnce(o options, out *os.File) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	sf := w.SF
	if o.sf > 0 {
		sf = o.sf
	}
	pinned, err := loadPinned()
	if err != nil {
		return nil, err
	}
	if o.pin {
		pinned = map[string]string{}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "work-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	s := newSession(w, sf, o.seed, scratch, pinned)
	s.quick = o.quick
	if o.trace {
		s.rec = newRecorder()
		s.root = s.rec.begin("run:"+w.Name, 0, 0)
	}
	setups := o.setups
	if setups == 0 {
		setups = 3
		if o.trace {
			setups = 1 // a traced run reports no set-up time
		}
	}
	if err := s.runSetups(setups); err != nil {
		return nil, err
	}
	s.runReference(o.trace || o.pin)
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	s.runRounds(o.rounds, budget, o.trace)
	s.checkGates()

	rep := &report{}
	s.endToEnd(rep)
	n := len(rep.metrics)
	if o.trace {
		layers, err := runLayers(s)
		if err != nil {
			return nil, err
		}
		s.perLayer(rep, layers)
		s.rec.end(s.root, nil)
		path := filepath.Join(o.out, "spans-"+w.Name+".json")
		if err := s.rec.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(s.rec.spans), path)
	}
	if o.pin {
		if err := writePins(s.seen); err != nil {
			return nil, err
		}
	}

	s.print(out, rep)
	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}, all: rep.metrics}
	reported := rep.metrics[:n] // untraced: the end-to-end metrics
	if o.trace {
		reported = rep.metrics[n:] // traced: the per-layer metrics
	}
	for _, m := range reported {
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	return res, nil
}

// endToEnd computes the metrics a user of the system would see, from the
// untraced rounds only.
func (s *session) endToEnd(rep *report) {
	walls := s.roundWalls(false)
	// Simulated seconds repeat from round to round, so the mean over the
	// timed dynamic ops is the mean over the op list; summing in list order
	// keeps the last digit independent of the seed's shuffle.
	var dynSim []float64
	for _, o := range s.w.Ops {
		if o.Strategy == dynopt.StrategyDynamic {
			dynSim = append(dynSim, s.sim[dynopt.StrategyDynamic][o.Subject])
		}
	}
	var alloc, gc, busy float64
	for _, r := range s.rounds {
		alloc += float64(r.AllocBytes)
		gc += r.GCCPU
		busy += r.BusyCPU
	}
	var cbSim, dySim float64
	for _, subj := range s.w.subjects() {
		cbSim += s.sim[dynopt.StrategyCostBased][subj.Subject]
		dySim += s.sim[dynopt.StrategyDynamic][subj.Subject]
	}
	ops := float64(max(len(s.samples), 1))
	// With no round, or with every op failed, a denominator is 0: report 0,
	// as perLayer does, so the result line still says what failed.
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.emit("setup_s", "s", median(s.setupS), fmt.Sprintf("median of %d set-ups", len(s.setupS)))
	// Interference on a shared host only ever adds time, so the fastest
	// round is the least contaminated estimate of what the code costs.
	rep.emit("queries_per_s", "1/s", frac(float64(len(s.w.Ops)), percentile(walls, 0)),
		fmt.Sprintf("%d ops / fastest of %d rounds; by the median round %.4g; round_spread %.3f",
			len(s.w.Ops), len(walls), frac(float64(len(s.w.Ops)), median(walls)), spread(walls)))
	rep.emit("sim_s_per_query", "simsec", mean(dynSim), "mean over timed dynamic ops; repeats exactly")
	rep.emit("sim_speedup_vs_costbased", "ratio", frac(cbSim, dySim), "sum cost-based sim / sum dynamic sim")
	rep.emit("alloc_mb_per_query", "MB", alloc/1e6/ops, "")
	rep.emit("gc_cpu_frac", "ratio", frac(gc, busy), "GC cpu-seconds / busy cpu-seconds over the timed rounds")
	rep.emit("peak_rss_mb", "MB", peakRSSMB(), "VmHWM")
}

func (s *session) print(out *os.File, rep *report) {
	fmt.Fprintf(out, "workload %s  sf %d  seed %d  rounds %d  samples %d  attempted %d  failed %d\n",
		s.w.Name, s.sf, s.seed, len(s.rounds), len(s.samples), s.attempted, s.failed)
	fmt.Fprint(out, "round wall s / reference kernel ms:")
	for _, r := range s.rounds {
		fmt.Fprintf(out, " %.2f/%.0f", r.WallS, r.RefMS)
	}
	fmt.Fprintln(out)
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "%-36s %14.6g %-7s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if len(s.altRows) > 0 {
		fmt.Fprintln(out, "forced alternatives (core.ChooseAlgo branch: the road taken against the road not taken):")
		for _, row := range s.altRows {
			fmt.Fprintln(out, " ", row)
		}
	}
	for _, f := range s.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
}

// writePins merges this run's digests into testdata/digests.json next to the
// source (run from the repository root or from benchmark/).
func writePins(seen map[string]string) error {
	path := "benchmark/testdata/digests.json"
	if _, err := os.Stat(path); err != nil {
		path = "testdata/digests.json"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pins := map[string]string{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return err
	}
	for k, v := range seen {
		pins[k] = v
	}
	ordered, err := json.MarshalIndent(pins, "", "  ") // encoding/json sorts map keys
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(ordered, '\n'), 0o644)
}
