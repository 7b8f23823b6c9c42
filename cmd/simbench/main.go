// Command simbench benchmarks the sharded discrete-event engine: the
// per-shard binary-heap scheduler, the conservative window
// coordinator and the multi-pool Trade fleet built on them. It writes
// a BENCH_sim.json snapshot alongside BENCH_lqn.json and
// BENCH_trade.json so the repository's performance evidence covers all
// three hot paths.
//
// The snapshot records, honestly, the machine it ran on: events/second
// at 1, 2, 4 and 8 shards with the speedup relative to one shard, a
// scheduler hold microbenchmark (with allocation counts), and the
// headline scenario — a 1,000,000-client multi-pool fleet — with its
// wall-clock time. Shard-level speedup needs real cores; the "cores"
// field says how many this run had, so a flat scaling column on a
// 1-core container is a property of the machine, not the engine.
//
// Every sweep doubles as a determinism check: a fixed-seed fleet must
// report identical statistics at every shard count, and simbench fails
// loudly if it does not.
//
// Usage:
//
//	simbench [-quick] [-shards 1,2,4,8] [-out BENCH_sim.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"perfpred/internal/sim"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// scalingRun is one shard count of the fixed-seed fleet sweep.
type scalingRun struct {
	Shards       int     `json:"shards"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// SpeedupVs1Shard is wall-clock relative to the 1-shard run of the
	// identical scenario; it can only exceed 1 when cores are available.
	SpeedupVs1Shard float64 `json:"speedup_vs_1_shard"`
	// CoreBound marks a multi-shard run that executed with GOMAXPROCS=1:
	// its shards timeshared a single core, so its speedup column measures
	// coordination overhead on this machine, not the engine's scaling.
	// The speedup regression check skips such runs.
	CoreBound bool `json:"core_bound,omitempty"`
}

type scalingSweep struct {
	Pools          int          `json:"pools"`
	ClientsPerPool int          `json:"clients_per_pool"`
	TotalClients   int          `json:"total_clients"`
	RemoteFraction float64      `json:"remote_fraction"`
	SimSeconds     float64      `json:"sim_seconds"`
	Runs           []scalingRun `json:"runs"`
	// Deterministic records that every shard count reproduced the
	// 1-shard run's statistics exactly (events fired, mean RT,
	// throughput); simbench aborts if they diverge.
	Deterministic bool `json:"deterministic"`
}

type headline struct {
	TotalClients   int     `json:"total_clients"`
	Pools          int     `json:"pools"`
	Shards         int     `json:"shards"`
	RemoteFraction float64 `json:"remote_fraction"`
	SimSeconds     float64 `json:"sim_seconds"`
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	MeanRTMillis   float64 `json:"mean_rt_ms"`
	Throughput     float64 `json:"throughput_req_per_sec"`
	Under60s       bool    `json:"under_60s"`
}

type snapshot struct {
	Note       string        `json:"note"`
	Cores      int           `json:"cores"`
	GoMaxProcs int           `json:"go_max_procs"`
	Scheduler  []benchResult `json:"scheduler"`
	Scaling    scalingSweep  `json:"scaling"`
	Headline   *headline     `json:"headline,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "small scenario for CI smoke runs (skips the 1M-client headline)")
	shards := flag.String("shards", "1,2,4,8", "comma-separated shard counts for the scaling sweep")
	out := flag.String("out", "BENCH_sim.json", "snapshot path (- for stdout)")
	flag.Parse()

	counts, err := parseShards(*shards)
	if err != nil {
		fatal(err)
	}

	snap := snapshot{
		Note: "Sharded DES engine benchmarks: binary-heap scheduler hold cost, " +
			"fleet scaling by shard count, and the 1M-client headline. Shard speedup is " +
			"bounded by the cores field; multi-shard runs on one core carry core_bound " +
			"and are exempt from the speedup regression gate. Determinism is asserted, " +
			"not assumed.",
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	pending := 200000
	if *quick {
		pending = 10000
	}
	fmt.Fprintf(os.Stderr, "simbench: scheduler microbenchmark (%d pending timers)\n", pending)
	snap.Scheduler = []benchResult{
		record(fmt.Sprintf("EngineHold%dk/heap", pending/1000), schedulerBench(pending)),
	}

	snap.Scaling = runScaling(counts, *quick)

	if !*quick {
		snap.Headline = runHeadline()
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "simbench: wrote %s\n", *out)
}

// schedulerBench measures per-event cost with a constant population of
// self-rescheduling timers resident in the queue — the regime a large
// fleet shard lives in, where every idle client holds a think timer.
// Steady state must be allocation-free.
func schedulerBench(pending int) func(b *testing.B) {
	return func(b *testing.B) {
		e := sim.NewEngine()
		rng := sim.NewStream(7)
		var fire func()
		fire = func() { e.Schedule(rng.Exp(1.0), fire) }
		for i := 0; i < pending; i++ {
			e.Schedule(rng.Float64(), fire)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(math.Inf(1), uint64(b.N))
	}
}

// runScaling runs the identical seeded fleet at each shard count,
// verifying that the statistics are identical before reporting the
// wall-clock column.
func runScaling(counts []int, quick bool) scalingSweep {
	sweep := scalingSweep{
		Pools:          8,
		ClientsPerPool: 1000,
		RemoteFraction: 0.1,
		SimSeconds:     120,
	}
	if quick {
		sweep.ClientsPerPool = 100
		sweep.SimSeconds = 20
	}
	sweep.TotalClients = sweep.Pools * sweep.ClientsPerPool
	sweep.Deterministic = true

	var ref *trade.Result
	for _, nshards := range counts {
		cfg := fleetConfig(sweep.Pools, nshards, sweep.ClientsPerPool, sweep.RemoteFraction, sweep.SimSeconds)
		fmt.Fprintf(os.Stderr, "simbench: scaling sweep, %d clients, shards=%d\n", sweep.TotalClients, nshards)
		res, wall, err := timedRun(cfg)
		if err != nil {
			fatal(err)
		}
		run := scalingRun{
			Shards:       nshards,
			Events:       res.EventsFired,
			WallSeconds:  wall,
			EventsPerSec: float64(res.EventsFired) / wall,
		}
		if ref == nil {
			ref = res
		} else if res.EventsFired != ref.EventsFired || res.MeanRT != ref.MeanRT || res.Throughput != ref.Throughput {
			fatal(fmt.Errorf("determinism violated at %d shards: events/meanRT/X %d/%v/%v, 1-shard run had %d/%v/%v",
				nshards, res.EventsFired, res.MeanRT, res.Throughput, ref.EventsFired, ref.MeanRT, ref.Throughput))
		}
		if len(sweep.Runs) > 0 {
			run.SpeedupVs1Shard = sweep.Runs[0].WallSeconds / wall
		} else {
			run.SpeedupVs1Shard = 1
		}
		run.CoreBound = nshards > 1 && runtime.GOMAXPROCS(0) == 1
		// Speedup regression gate: with real cores, a multi-shard run that
		// comes in far slower than the 1-shard run means the conservative
		// window coordination regressed, and the snapshot should not paper
		// over it. On one core the shards timeshare — wall clock there
		// measures the machine, so the comparison is skipped (and the run
		// carries core_bound: true instead).
		const minSpeedup = 0.75
		if !run.CoreBound && nshards > 1 && run.SpeedupVs1Shard < minSpeedup {
			fatal(fmt.Errorf("speedup regression at %d shards: %.2fx vs 1 shard (floor %.2fx with %d procs)",
				nshards, run.SpeedupVs1Shard, minSpeedup, runtime.GOMAXPROCS(0)))
		}
		sweep.Runs = append(sweep.Runs, run)
	}
	return sweep
}

// runHeadline times the 1,000,000-client fleet: 625 pools of 1600
// clients on AppServVF (≈70% utilisation each), 2% of requests served
// by a sibling pool, 8 shards. The interactive-speed target is a
// complete run in under a minute.
func runHeadline() *headline {
	h := &headline{
		TotalClients:   1000000,
		Pools:          625,
		Shards:         8,
		RemoteFraction: 0.02,
		SimSeconds:     12,
	}
	cfg := fleetConfig(h.Pools, h.Shards, h.TotalClients/h.Pools, h.RemoteFraction, 10)
	cfg.Server = workload.AppServVF()
	cfg.WarmUp = 2
	fmt.Fprintf(os.Stderr, "simbench: headline, %d clients across %d pools, shards=%d\n",
		h.TotalClients, h.Pools, h.Shards)
	res, wall, err := timedRun(cfg)
	if err != nil {
		fatal(err)
	}
	h.Events = res.EventsFired
	h.WallSeconds = wall
	h.EventsPerSec = float64(res.EventsFired) / wall
	h.MeanRTMillis = res.MeanRT * 1000
	h.Throughput = res.Throughput
	h.Under60s = wall < 60
	return h
}

func fleetConfig(pools, shards, clientsPerPool int, remote, duration float64) trade.Config {
	return trade.Config{
		Server:         workload.AppServF(),
		DB:             workload.CaseStudyDB(),
		Demands:        workload.CaseStudyDemands(),
		Load:           workload.MixedWorkload(clientsPerPool, workload.StandardBuyFraction),
		Seed:           17,
		WarmUp:         duration / 12,
		Duration:       duration,
		MaxRTSamples:   64,
		Pools:          pools,
		Shards:         shards,
		RemoteFraction: remote,
	}
}

func timedRun(cfg trade.Config) (*trade.Result, float64, error) {
	start := time.Now()
	res, err := trade.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(start).Seconds()
	return res, wall, nil
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

func parseShards(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("no shard counts in %q", s)
	}
	return counts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}
