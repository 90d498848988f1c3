package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// A/A mode: the same binary, the same workload, two back-to-back sets of N
// runs (each run its own process and its own seed). For every end-to-end
// metric it prints each set's median and quartiles, the spread the contract
// defines (interquartile range over median), how much worse the second
// median is than the first, and the metric's bound from BENCHMARK.json. The
// output is Markdown: NOISE.md is this table for each workload.

// benchmarkFile is the part of BENCHMARK.json A/A mode needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: run from the repository root or from benchmark/")
}

// runChild runs one workload run in its own process and parses its last line.
func runChild(self string, o options, seed int) (*result, error) {
	cmd := exec.Command(self,
		"-workload", o.workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-out", o.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run with seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("run with seed %d: last line: %w", seed, err)
	}
	return &res, nil
}

func runAA(o options, n int) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	for set := range sets {
		for i := 1; i <= n; i++ {
			res, err := runChild(self, o, set*n+i)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("run with seed %d: %d of %d ops failed", set*n+i, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[set][name] = append(sets[set][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s set %c run %d/%d done\n", o.workload, 'A'+set, i, n)
		}
	}

	fmt.Printf("### %s — two sets of %d runs, %g s each\n\n", o.workload, n, o.seconds)
	fmt.Println("| metric | unit | set A median [q1, q3] | set B median [q1, q3] | spread A | spread B | B worse than A by | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	var failed []string
	for _, m := range bf.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(a) == 0 || len(b) == 0 {
			return fmt.Errorf("metric %s of BENCHMARK.json was not reported", m.Name)
		}
		ma, mb := median(a), median(b)
		worse := (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
		sa, sb := spread(a), spread(b)
		verdict := "ok"
		switch worst := max(sa, sb); {
		case worse > m.Bound:
			verdict = "DRIFT over bound"
		case m.Name != "setup_s" && worst > m.Bound:
			verdict = "SPREAD over bound"
		case m.Name != "setup_s" && worst > m.Bound/3:
			verdict = "ok (spread over a third of the bound)"
		}
		if strings.Contains(verdict, "over bound") {
			failed = append(failed, m.Name)
		}
		qa1, qa3 := quartiles(a)
		qb1, qb3 := quartiles(b)
		fmt.Printf("| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f %% | %.2f %% | %+.2f %% | %g %% | %s |\n",
			m.Name, m.Unit, ma, qa1, qa3, mb, qb1, qb3, 100*sa, 100*sb, 100*worse, 100*m.Bound, verdict)
	}
	fmt.Println()
	if len(failed) > 0 {
		return fmt.Errorf("A/A: %s outside the bound on %s", strings.Join(failed, ", "), o.workload)
	}
	return nil
}
