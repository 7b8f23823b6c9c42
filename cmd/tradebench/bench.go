package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// The simulator fast path is benchmarked against a fixed pre-optimisation
// reference so the snapshot carries its own evidence: the same
// figure-scale sweep (8 AppServF populations, seed 17, 60s windows,
// one worker) measured before the pooled request lifecycle and alias
// sampling landed.
var baseline = benchResult{
	Name:        "MeasureCurve/fixed/workers=1 (pre-optimisation reference)",
	NsPerOp:     293e6,
	AllocsPerOp: 1753877,
	BytesPerOp:  73191277,
}

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type snapshot struct {
	Note              string        `json:"note"`
	Cores             int           `json:"cores"`
	GOMAXPROCS        int           `json:"gomaxprocs"`
	GoVersion         string        `json:"go_version"`
	Baseline          benchResult   `json:"baseline"`
	Benchmarks        []benchResult `json:"benchmarks"`
	SpeedupVsBaseline float64       `json:"speedup_vs_baseline"`
	AllocReductionPct float64       `json:"alloc_reduction_pct"`
}

func record(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// sweepCounts mirrors the figure-2-style client grid of the in-package
// BenchmarkMeasureCurve, so the snapshot and the baseline measure the
// same work.
func sweepCounts() []int { return []int{260, 460, 650, 1050, 1300, 1560, 1890, 2210} }

func runBenchmarks(out string) {
	snap := snapshot{
		Note:       "trade simulator fast path; regenerate with `make bench` (timings are machine-dependent, allocation counts are not)",
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	snap.Baseline = baseline

	sweep := func(opt trade.MeasureOptions) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trade.MeasureCurve(workload.AppServF(), sweepCounts(), 0, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	fixed := trade.MeasureOptions{Seed: 17, WarmUp: 10, Duration: 60, Workers: 1}

	headline := record("MeasureCurve/fixed/workers=1", sweep(fixed))
	snap.Benchmarks = append(snap.Benchmarks,
		headline,
		record("Run/closed-400-mixed", func(b *testing.B) {
			cfg := trade.Config{
				Server:   workload.AppServF(),
				DB:       workload.CaseStudyDB(),
				Demands:  workload.CaseStudyDemands(),
				Load:     workload.MixedWorkload(400, 0.25),
				Seed:     11,
				WarmUp:   10,
				Duration: 60,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trade.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}),
		record("Windows/800-clients-10-windows", func(b *testing.B) {
			cfg := trade.Config{
				Server:   workload.AppServF(),
				DB:       workload.CaseStudyDB(),
				Demands:  workload.CaseStudyDemands(),
				Load:     workload.TypicalWorkload(800),
				Seed:     7,
				Duration: 60,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trade.Windows(cfg, 10); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)

	snap.SpeedupVsBaseline = baseline.NsPerOp / headline.NsPerOp
	snap.AllocReductionPct = 100 * (1 - float64(headline.AllocsPerOp)/float64(baseline.AllocsPerOp))

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: sweep %.0f ms/op, %d allocs/op (%.1fx faster, %.1f%% fewer allocs than the reference)\n",
		out, headline.NsPerOp/1e6, headline.AllocsPerOp, snap.SpeedupVsBaseline, snap.AllocReductionPct)
}
