// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks for the sketch, hash and parse hot paths (the join
// operators are timed on workload data by benchmark/'s layer pass).
// Figure/Table benches run at scale factor 1 so `go test -bench=.` completes
// quickly; the full-scale sweeps (SF 1/5/25 standing in for 10/100/1000 GB)
// are produced by `go run ./cmd/joinbench -all`.
package dynopt

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dynopt/internal/bench"
	"dynopt/internal/core"
	"dynopt/internal/sketch"
	"dynopt/internal/sqlpp"
	"dynopt/internal/types"
)

const (
	benchSF    = 1
	benchNodes = 4
)

// BenchmarkFigure6Overhead regenerates Figure 6 (left): the overhead of
// re-optimization points and online statistics collection.
func BenchmarkFigure6Overhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure6Overhead([]int{benchSF}, benchNodes)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure6Pushdown regenerates Figure 6 (right): the predicate
// push-down overhead vs the exact-statistics baseline.
func BenchmarkFigure6Pushdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure6Pushdown([]int{benchSF}, benchNodes)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// benchFigure7Query benchmarks one query column of Figure 7 (all six
// strategies).
func benchFigure7Query(b *testing.B, name string, indexes bool) {
	env, err := bench.NewEnv(benchSF, benchNodes, indexes)
	if err != nil {
		b.Fatal(err)
	}
	var q bench.Query
	for _, cand := range bench.Queries() {
		if cand.Name == name {
			q = cand
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range env.Strategies() {
			if _, err := env.RunOne(s, q.SQL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7Q17 regenerates the Q17 group of Figure 7.
func BenchmarkFigure7Q17(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q17", false) }

// BenchmarkFigure7Q50 regenerates the Q50 group of Figure 7.
func BenchmarkFigure7Q50(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q50", false) }

// BenchmarkFigure7Q8 regenerates the Q8 group of Figure 7.
func BenchmarkFigure7Q8(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q8", false) }

// BenchmarkFigure7Q9 regenerates the Q9 group of Figure 7.
func BenchmarkFigure7Q9(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q9", false) }

// BenchmarkFigure8Q17 regenerates the Q17 group of Figure 8 (INLJ enabled).
func BenchmarkFigure8Q17(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q17", true) }

// BenchmarkFigure8Q50 regenerates the Q50 group of Figure 8.
func BenchmarkFigure8Q50(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q50", true) }

// BenchmarkFigure8Q8 regenerates the Q8 group of Figure 8.
func BenchmarkFigure8Q8(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q8", true) }

// BenchmarkFigure8Q9 regenerates the Q9 group of Figure 8.
func BenchmarkFigure8Q9(b *testing.B) { b.ReportAllocs(); benchFigure7Query(b, "Q9", true) }

// BenchmarkTable1 regenerates Table 1 (average improvement ratios) from a
// Figure 7 sweep.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure7([]int{benchSF}, benchNodes)
		if err != nil {
			b.Fatal(err)
		}
		t1 := bench.Table1(rows)
		if len(t1) != 1 {
			b.Fatalf("table rows = %d", len(t1))
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkGKInsert measures quantile-sketch insertion (the ingestion-time
// statistics path).
func BenchmarkGKInsert(b *testing.B) {
	g := sketch.NewGK(0.005)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Insert(float64(i % 100000))
	}
}

// BenchmarkHLLAdd measures distinct-sketch insertion.
func BenchmarkHLLAdd(b *testing.B) {
	h := sketch.NewHLL(sketch.DefaultHLLPrecision)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// BenchmarkValueHash measures the tuple-key hash used by every exchange and
// hash table.
func BenchmarkValueHash(b *testing.B) {
	t := types.Tuple{types.Int(42), types.Str("composite"), types.Int(7)}
	keys := []int{0, 1, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.HashKeys(keys)
	}
}

// BenchmarkDynamicEndToEnd measures a full Algorithm 1 run on TPC-H Q9.
func BenchmarkDynamicEndToEnd(b *testing.B) {
	env, err := bench.NewEnv(benchSF, benchNodes, false)
	if err != nil {
		b.Fatal(err)
	}
	var q9 bench.Query
	for _, q := range bench.Queries() {
		if q.Name == "Q9" {
			q9 = q
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RunOne(&core.Dynamic{Cfg: core.DefaultConfig()}, q9.SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures the SQL++ front end on the biggest workload query.
func BenchmarkParse(b *testing.B) {
	sql := TPCDSQ17()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlpp.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentQueries measures serving throughput (queries/sec) at
// 1, 4, and 16 concurrent clients issuing a mixed-strategy workload against
// one DB — the per-query execution scope is what makes this sound.
func BenchmarkConcurrentQueries(b *testing.B) {
	b.ReportAllocs()
	mixed := []Strategy{StrategyDynamic, StrategyCostBased, StrategyWorstOrder, StrategyIngres}
	for _, clients := range []int{1, 4, 16} {
		b.Run(strconv.Itoa(clients)+"-clients", func(b *testing.B) {
			db := Open(Config{Nodes: benchNodes})
			if _, err := LoadTPCDS(db, benchSF); err != nil {
				b.Fatal(err)
			}
			sql := TPCDSQ17()
			var seq atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			work := make(chan int)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						s := mixed[int(seq.Add(1))%len(mixed)]
						if _, err := db.Query(sql, &QueryOptions{Strategy: s}); err != nil {
							// Keep draining so the feeding loop never blocks
							// on a channel nobody receives from.
							b.Error(err)
						}
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}
