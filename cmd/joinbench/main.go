// Command joinbench regenerates the paper's evaluation artifacts in
// simulated seconds:
//
//	joinbench -fig 6      Figure 6 (overhead decomposition, both halves)
//	joinbench -fig 7      Figure 7 (six strategies, hash+broadcast)
//	joinbench -fig 8      Figure 8 (with secondary indexes + INLJ)
//	joinbench -table 1    Table 1 (average improvement ratios)
//	joinbench -all        everything
//
// Flags -sf (comma-separated scale factors, default 1,5,25 standing in for
// the paper's 10/100/1000 GB) and -nodes (default 10, the paper's cluster
// size) control the setup. -cpuprofile/-memprofile write pprof profiles of
// the run. Wall-clock performance is measured by benchmark/ (see
// BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dynopt/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (6, 7, or 8)")
	table := flag.Int("table", 0, "table to regenerate (1)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	sfFlag := flag.String("sf", "1,5,25", "comma-separated scale factors")
	nodes := flag.Int("nodes", 10, "simulated cluster nodes")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() exits without unwinding, so flushing is registered with it
		// too: a failing bench still leaves a usable CPU profile behind.
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopCPUProfile = nil
		}
		defer func() { flushProfiles(*memProfile) }()
	} else if *memProfile != "" {
		defer func() { flushProfiles(*memProfile) }()
	}

	sfs, err := parseSFs(*sfFlag)
	if err != nil {
		fatal(err)
	}
	ran := false
	if *all || *fig == 6 {
		ran = true
		runFigure6(sfs, *nodes)
	}
	if *all || *fig == 7 {
		ran = true
		rows := runFigure7(sfs, *nodes)
		if *all || *table == 1 {
			fmt.Println("== Table 1: average improvement of dynamic vs baselines (ratio of baseline sim time to dynamic's) ==")
			fmt.Println(bench.FormatTable1(bench.Table1(rows)))
		}
	} else if *table == 1 {
		ran = true
		rows := runFigure7(sfs, *nodes)
		fmt.Println("== Table 1: average improvement of dynamic vs baselines ==")
		fmt.Println(bench.FormatTable1(bench.Table1(rows)))
	}
	if *all || *fig == 8 {
		ran = true
		runFigure8(sfs, *nodes)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func runFigure6(sfs []int, nodes int) {
	fmt.Println("== Figure 6 (left): re-optimization + online statistics overhead ==")
	rows, err := bench.Figure6Overhead(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatOverhead(rows))
	fmt.Println("== Figure 6 (right): predicate push-down overhead ==")
	pd, err := bench.Figure6Pushdown(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatPushdown(pd))
}

func runFigure7(sfs []int, nodes int) []bench.CompareRow {
	fmt.Println("== Figure 7: execution time comparison (simulated seconds) ==")
	rows, err := bench.Figure7(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatCompare(rows))
	printPlans(rows)
	return rows
}

func runFigure8(sfs []int, nodes int) {
	fmt.Println("== Figure 8: comparison with secondary indexes + INLJ (simulated seconds) ==")
	rows, err := bench.Figure8(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatCompare(rows))
	printPlans(rows)
}

func printPlans(rows []bench.CompareRow) {
	fmt.Println("-- chosen plans --")
	for _, r := range rows {
		fmt.Printf("%s sf%d:\n", r.Query, r.SF)
		for _, s := range bench.StrategyOrder {
			fmt.Printf("  %-12s %s\n", s, r.Plan[s])
		}
	}
	fmt.Println()
}

func parseSFs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad scale factor %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scale factors given")
	}
	return out, nil
}

// stopCPUProfile, when profiling is active, flushes and closes the CPU
// profile exactly once; nil otherwise.
var stopCPUProfile func()

// flushProfiles finalizes the CPU profile and, when requested, writes the
// heap profile. Errors are reported but never fatal: profiles are flushed
// on the way out of fatal() itself.
func flushProfiles(memProfile string) {
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
	if memProfile == "" {
		return
	}
	f, err := os.Create(memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench: memprofile:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joinbench:", err)
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
	os.Exit(1)
}
