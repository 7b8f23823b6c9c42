// Command perfbench is the repository's end-to-end benchmark. It drives
// the system's four end-to-end paths through the public functions of
// the packages that implement them and checks every answer:
//
//	serve-warm    warm predictions over HTTP/JSON from an in-process serve.Service
//	serve-cold    cold hybrid model builds behind the same service
//	fleet-routed  a routed, in-loop replanned fleet simulation (fleet.Run)
//	paper-repro   the paper reproduction (bench.Suite.Run for every experiment)
//
// With -trace 0 it reports the end-to-end metrics named in
// BENCHMARK.json; with -trace 1 it runs an untraced and a traced pass,
// records spans at the layer boundaries it owns plus the program's obs
// counters, and reports the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Everything else it prints (run envelope, every metric under its
// per-workload name, the per-layer table) comes before that line, and
// the full result, the spans and the per-layer table are also written
// under .bench_build/results/ in the repository root.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0
//
// or, from this directory, go run . -workload serve-warm -seed 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if w := os.Getenv(childEnv); w != "" {
		os.Exit(reproChild(w, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line inputs.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	outDir   string
}

// workloads maps each workload name to the function that runs it, in
// BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(r *runner) error
}{
	{"serve-warm", func(r *runner) error { return runServeWarm(r, defaultWarmSize) }},
	{"serve-cold", func(r *runner) error { return runServeCold(r, defaultColdSize) }},
	{"fleet-routed", func(r *runner) error { return runFleet(r, defaultFleetSize) }},
	{"paper-repro", func(r *runner) error { return runRepro(r, defaultReproSize) }},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: serve-warm, serve-cold, fleet-routed or paper-repro")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; equal seeds generate equal inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per pass")
	fs.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&o.root, "root", "", "repository root (default: found upward from the working directory)")
	fs.StringVar(&o.outDir, "out", "", "results directory (default <root>/.bench_build/results)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	var drive func(*runner) error
	for _, w := range workloads {
		if w.name == o.workload {
			drive = w.run
		}
	}
	if drive == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.root == "" {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		o.root = root
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(o.root, ".bench_build", "results")
	}

	r := newRunner(o, stderr)
	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := r.finish()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	r.printReport(stdout)
	if err := r.writeFiles(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, f := range r.failures {
			fmt.Fprintln(stderr, "perfbench: check failed:", f)
		}
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the perfpred module
// root, the directory whose go.mod declares "module perfpred".
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module perfpred\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no perfpred module root above the working directory")
		}
		dir = parent
	}
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// namedValue is a metric under its per-workload name (warm_rps,
// cold_p95_ms, ...), printed beside the end-to-end metric it feeds.
type namedValue struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Feeds   string  `json:"feeds,omitempty"`
}

// runner collects one run's outcome: operation counts, check failures,
// metric values and, in a traced run, the spans.
type runner struct {
	opt    options
	stderr io.Writer
	env    envelope
	tr     *tracer // nil in an untraced run

	attempted, failed int64
	failures          []string

	values map[string]float64
	named  []namedValue
	layers string // the traced run's per-layer span table
}

func newRunner(o options, stderr io.Writer) *runner {
	r := &runner{opt: o, stderr: stderr, values: map[string]float64{}}
	r.env = newEnvelope(o)
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// logf writes progress to standard error.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.stderr, "perfbench: "+format+"\n", args...)
}

// ops records attempted and failed operations.
func (r *runner) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// fail records a failed output check; the run reports correct=false.
// At most a few dozen reasons are kept, but every failure counts.
func (r *runner) fail(format string, args ...any) {
	if len(r.failures) < 32 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	} else if len(r.failures) == 32 {
		r.failures = append(r.failures, "(further failures omitted)")
	}
}

// set records a metric value under its BENCHMARK.json name.
func (r *runner) set(name string, v float64) { r.values[name] = v }

// name records a metric under its per-workload name for the report.
func (r *runner) name(name string, v float64, unit string, samples int, feeds string) {
	r.named = append(r.named, namedValue{Name: name, Value: v, Unit: unit, Samples: samples, Feeds: feeds})
}

// finish assembles the result line: every end-to-end metric without
// tracing, every per-layer metric with it. A metric a workload leaves
// unset is an error in an untraced run; in a traced run it is a layer
// the workload does not exercise and reads 0.
func (r *runner) finish() (*result, error) {
	res := &result{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	if !r.opt.trace {
		if _, ok := r.values["peak_rss_mb"]; !ok {
			r.set("peak_rss_mb", peakRSSMB())
		}
		r.set("success_pct", 100*float64(r.attempted-r.failed)/float64(r.attempted))
	}
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			if !r.opt.trace {
				return nil, fmt.Errorf("end-to-end metric %s not measured", d.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		if !r.opt.trace && v <= 0 && res.Correct {
			return nil, fmt.Errorf("end-to-end metric %s is %v, want > 0", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printReport prints the envelope, every metric under its
// per-workload name and, in a traced run, the per-layer table.
func (r *runner) printReport(w io.Writer) {
	e := r.env
	dirty := "unknown"
	if e.Dirty != nil {
		dirty = fmt.Sprint(*e.Dirty)
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", e.Workload, e.Seed, e.Seconds, e.Trace)
	fmt.Fprintf(w, "  cores=%d gomaxprocs=%d go=%s revision=%s dirty=%s\n", e.Cores, e.GOMAXPROCS, e.GoVersion, e.Revision, dirty)
	fmt.Fprintf(w, "  operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, n := range r.named {
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n.Name, n.Value, n.Unit)
		if n.Samples > 0 {
			line += fmt.Sprintf(" n=%d", n.Samples)
		}
		if n.Feeds != "" {
			line += " -> " + n.Feeds
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if r.opt.trace {
		fmt.Fprintln(w, "  per-layer metrics (value | module, measured on | should move | should stay flat):")
		for _, d := range perLayer {
			v, ok := r.values[d.Name]
			mark := ""
			if !ok {
				mark = " (not exercised)"
			}
			fmt.Fprintf(w, "  %-38s %14.6g %-6s%s | %s, %s | %s | %s\n", d.Name, v, d.Unit, mark, d.Layer, d.Measured, d.Moves, d.Flat)
		}
		fmt.Fprint(w, r.layers)
	} else {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, r.values[d.Name], d.Unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  CHECK FAILED:", f)
	}
}

// writeFiles stores the full result beside the spans and the per-layer
// table, named by workload so each traced run replaces the last one's
// span file.
func (r *runner) writeFiles(res *result) error {
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.opt.trace {
		mode = "trace"
	}
	full := struct {
		Envelope envelope     `json:"envelope"`
		Result   *result      `json:"result"`
		Named    []namedValue `json:"named"`
		Failures []string     `json:"failures,omitempty"`
	}{r.env, res, r.named, r.failures}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(r.opt.outDir, fmt.Sprintf("%s-%s", r.opt.workload, mode))
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	if err := os.WriteFile(base+".layers.txt", []byte(r.layers), 0o644); err != nil {
		return err
	}
	return r.tr.writeJSONL(base + ".spans.jsonl")
}

// envelope records what produced a result.
type envelope struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	// Dirty is nil when the source is not a git work tree (the revision
	// is then a digest of the Go sources).
	Dirty   *bool  `json:"dirty"`
	Started string `json:"started"`
}

func newEnvelope(o options) envelope {
	rev, dirty := revision(o.root)
	return envelope{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   rev,
		Dirty:      dirty,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
