package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test holds the program to.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// countMetrics must not depend on the seed or on the run.
var countMetrics = []string{
	"sim_s_per_query", "sim_speedup_vs_costbased", "core.reopts_per_query", "core.pushdowns_per_query",
	"core.mat_mb_per_query", "core.stats_obs_per_query", "engine.build_rows_per_query", "engine.probe_rows_per_query",
	"engine.shuffle_mb_per_query", "engine.broadcast_mb_per_query", "storage.spill_mb_per_query",
	"storage.pages_read_per_query", "storage.pages_pruned_frac", "storage.paged_bytes_per_user_byte",
}

// TestSmoke runs every workload at sf 1 — untraced for a tenth of a second the
// way the command line does, traced for two rounds — and checks the output
// contract: the metric sets of BENCHMARK.json, exact counts, seed-dependent
// order, and a well-formed span file.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { null.Close() }) // after the parallel subtests
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads()))
	}

	for _, wl := range c.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			run := func(seed int64, trace bool) (*result, []string) {
				t.Helper()
				out := t.TempDir()
				o := options{workload: wl.Name, seed: seed, trace: trace, out: out, sf: 1, setups: 1, quick: true}
				if trace {
					o.rounds = 2 // one untraced, one traced
				} else {
					o.seconds = 0.1 // the production loop: whole rounds until their walls add up
				}
				res, err := runOnce(o, null)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("seed %d trace %v: correct=%v attempted=%d failed=%d", seed, trace, res.Correct, res.Attempted, res.Failed)
				}
				var order []string
				if trace {
					order = checkSpans(t, filepath.Join(out, "spans-"+wl.Name+".json"))
				}
				return res, order
			}
			checkSet := func(res *result, want []contractMetric) {
				t.Helper()
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not reported", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
					}
				}
				seen := map[string]bool{}
				for _, m := range res.all {
					if seen[m.Name] {
						t.Errorf("metric %s emitted twice", m.Name)
					}
					seen[m.Name] = true
				}
			}
			value := func(res *result, name string) (float64, bool) {
				for _, m := range res.all {
					if m.Name == name {
						return m.Value, true
					}
				}
				return 0, false
			}

			untraced, _ := run(1, false)
			checkSet(untraced, c.EndToEnd)
			a, orderA := run(1, true)
			checkSet(a, c.PerLayer)
			b, orderB := run(1, true)
			other, orderOther := run(2, true)
			if strings.Join(orderA, " ") != strings.Join(orderB, " ") {
				t.Errorf("the same seed gave two op orders:\n%v\n%v", orderA, orderB)
			}
			if strings.Join(orderA, " ") == strings.Join(orderOther, " ") {
				t.Errorf("seeds 1 and 2 gave the same op order: %v", orderA)
			}
			for _, name := range countMetrics {
				want, ok := value(a, name)
				if !ok {
					t.Errorf("metric %s not computed by a traced run", name)
				}
				for _, res := range []*result{untraced, b, other} {
					// An untraced run computes the end-to-end counts only.
					if got, ok := value(res, name); ok && got != want {
						t.Errorf("%s = %v in one run and %v in another: counts must repeat exactly", name, want, got)
					}
				}
			}
		})
	}
}

// checkSpans parses a span file, requires every span's parent to be present
// and every span to be closed, and returns the op order of the traced round.
func checkSpans(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var order []string
	layers := 0
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Errorf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
			}
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if strings.HasPrefix(s.Name, "op:") && byID[s.Parent].Name == "round" {
			order = append(order, s.Name)
		}
		if strings.HasPrefix(s.Name, "layer:") {
			layers++
		}
	}
	if len(order) == 0 || layers == 0 {
		t.Errorf("%s: %d op spans in the traced round, %d layer spans", path, len(order), layers)
	}
	return order
}
