// Command jasbench is the repository's benchmark. It runs one named
// workload per process against the simulator's public package functions,
// checks the outputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as one JSON line.
// See README.md in this directory for the workloads, metrics and layer
// predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"jasworkload/internal/core"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/jasbench"

// setupReps is how many times each workload's set-up runs; setup_s
// reports the median.
const setupReps = 5

type workloadDef struct {
	name string
	run  func(b *bench) error
}

// workloads are the named workloads, in BENCHMARK.json order; its "why"
// lines and README.md say why each was chosen.
var workloads = []workloadDef{
	{"report-quick", runReportQuick},
	{"reqlevel-grid", runReqlevelGrid},
	{"serve-mixed", runServeMixed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// hostFacts pins the numbers to the machine and schedule that made them.
type hostFacts struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Parallelism int    `json:"parallelism"`
	ShardMode   string `json:"shard_mode"`
	Shards      int    `json:"shards"`
	Commit      string `json:"commit"`
}

func currentHost() hostFacts {
	h := hostFacts{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Parallelism: core.Parallelism(),
		Shards:      core.DetailShards(),
		ShardMode:   "direct",
		Commit:      os.Getenv("JASBENCH_COMMIT"),
	}
	if h.Shards > 0 {
		h.ShardMode = "sharded"
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// bench is the state of one workload run.
type bench struct {
	name     string
	seed     int64
	seconds  float64
	tr       *Tracer // nil unless this is the traced run
	deadline time.Time

	attempted, failed int
	problems          []string

	setupSecs []float64
	opWall    []float64 // seconds per operation
	opCPU     []float64 // process CPU seconds per operation

	named map[string]metric // the workload's own end-to-end metrics
	layer map[string]metric // per-layer metrics (traced run)
	host  hostFacts
	table string // layer-share table (traced run)
}

// fail counts one failed operation and keeps its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// setup runs the workload's set-up setupReps times and records each
// duration; the last run's state is the one the workload keeps. Every
// repetition first starts this binary as a child that exits as soon as
// main runs, so process start and package initialization (the workload
// registry) count towards setup_s as often as the rest of the set-up.
func (b *bench) setup(fn func(last bool) error) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := exec.Command(self, "--launch-probe").Run(); err != nil {
			return fmt.Errorf("launch probe: %w", err)
		}
		if err := fn(i == setupReps-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupSecs = append(b.setupSecs, time.Since(t0).Seconds())
	}
	b.deadline = time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	return nil
}

// loop calls op until the measuring deadline passes, at least minReps
// times. An op error counts as one failed operation.
func (b *bench) loop(minReps int, op func(rep int) error) {
	for rep := 0; rep < minReps || time.Now().Before(b.deadline); rep++ {
		b.attempted++
		if err := op(rep); err != nil {
			b.fail("op %d: %v", rep, err)
		}
	}
}

func (b *bench) setNamed(name, unit string, xs []float64) {
	b.named[name] = metric{Value: median(xs), Unit: unit, N: len(xs)}
}

func (b *bench) setLayer(name, unit string, v float64, n int) {
	b.layer[name] = metric{Value: v, Unit: unit, N: n}
}

// result is everything one run reports; it is written to the results
// directory, and its contract subset is the last stdout line.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Named     map[string]metric `json:"named,omitempty"`
	Layer     map[string]metric `json:"layer,omitempty"`
	Host      hostFacts         `json:"host"`
	// Samples are the per-operation wall and CPU seconds behind op_s and
	// op_cpu_s, and the set-up seconds behind setup_s, in run order.
	Samples map[string][]float64 `json:"samples"`
}

// contractLine is the last stdout line: correctness, operation counts and
// the metrics BENCHMARK.json declares for this mode.
type contractLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueUnits `json:"metrics"`
}

type valueUnits struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run (report-quick, reqlevel-grid, serve-mixed) or all")
	seed := fs.Int64("seed", 1, "workload seed (1 is the default and the golden seed; 2 is the held-out seed)")
	seconds := fs.Int("seconds", 20, "how long the measured loop runs")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := fs.Bool("launch-probe", false, "exit at once; set-up timing starts the binary with it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		return 0
	}
	if *seed < 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "jasbench: need --seed >= 0, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if *wl == "all" {
		return runAll(*seed, *seconds, *traceFlag, stdout, stderr)
	}
	def, ok := findWorkload(*wl)
	if !ok {
		fmt.Fprintf(stderr, "jasbench: unknown workload %q\n", *wl)
		return 2
	}
	b := &bench{
		name:    def.name,
		seed:    *seed,
		seconds: float64(*seconds),
		named:   map[string]metric{},
		layer:   map[string]metric{},
		host:    currentHost(),
	}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	if err := def.run(b); err != nil {
		fmt.Fprintf(stderr, "jasbench: %s: %v\n", def.name, err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(stderr, "jasbench: %s attempted no operations\n", def.name)
		return 1
	}
	res := b.result()
	if err := writeOutputs(b, res); err != nil {
		fmt.Fprintf(stderr, "jasbench: %v\n", err)
		return 1
	}
	printSummary(stderr, b, res)
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]valueUnits{}}
	for k, m := range res.Metrics {
		line.Metrics[k] = valueUnits{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "jasbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result assembles the run's report. The untraced run's metrics are the
// end-to-end set, identical in name for every workload; the traced run's
// are the per-layer set, every name present (zero where the workload does
// not load that layer).
func (b *bench) result() result {
	res := result{
		Workload: b.name, Seed: b.seed, Seconds: b.seconds, Trace: b.tr != nil,
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Problems: b.problems, Named: b.named, Host: b.host, Metrics: map[string]metric{},
		Samples: map[string][]float64{"op_s": b.opWall, "op_cpu_s": b.opCPU, "setup_s": b.setupSecs},
	}
	if b.tr == nil {
		res.Metrics["op_s"] = metric{Value: median(b.opWall), Unit: "s", N: len(b.opWall)}
		res.Metrics["op_cpu_s"] = metric{Value: median(b.opCPU), Unit: "s", N: len(b.opCPU)}
		res.Metrics["setup_s"] = metric{Value: median(b.setupSecs), Unit: "s", N: len(b.setupSecs)}
		res.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB", N: 1}
		return res
	}
	res.Layer = b.layer
	for _, d := range layerMetricDefs {
		m, ok := b.layer[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		res.Metrics[d.name] = m
	}
	return res
}

// resultPath is where a run's files go, without the extension.
func resultPath(name string, seed int64, traced bool) string {
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s", name, seed, mode))
}

// writeOutputs stores the full result, and for a traced run the spans and
// the layer-share table, under outDir.
func writeOutputs(b *bench, res result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := resultPath(b.name, b.seed, b.tr != nil)
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(body, '\n'), 0o644); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	if err := os.WriteFile(base+"-layers.md", []byte(b.table), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	if err := writeSpans(f, b.tr.Spans()); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func printSummary(w io.Writer, b *bench, res result) {
	fmt.Fprintf(w, "jasbench %s seed %d (%s): attempted %d, failed %d\n",
		b.name, b.seed, map[bool]string{false: "end to end", true: "traced"}[res.Trace], res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	printMetrics(w, res.Named)
	if !res.Trace {
		printMetrics(w, res.Metrics)
	} else {
		fmt.Fprint(w, b.table)
	}
	h := res.Host
	fmt.Fprintf(w, "  host: num_cpu %d, GOMAXPROCS %d, %s, parallelism %d, shards %s/%d, commit %s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Parallelism, h.ShardMode, h.Shards, h.Commit)
	fmt.Fprintf(w, "  written: %s.json\n", resultPath(b.name, b.seed, res.Trace))
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "  %-22s %14.6g %-8s (n=%d)\n", k, m.Value, m.Unit, m.N)
	}
}

// runAll runs every workload in its own process and prints the named
// end-to-end metrics of each with units, plus attempted and failed
// operations. It fails if any workload's output checks fail.
func runAll(seed int64, seconds, traceFlag int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "jasbench: %v\n", err)
		return 1
	}
	code := 0
	summary := map[string]result{}
	for _, w := range workloads {
		path := resultPath(w.name, seed, traceFlag == 1) + ".json"
		os.Remove(path)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceFlag))
		cmd.Stderr = stderr
		// A run whose checks fail exits 1, after writing its result.
		if err := cmd.Run(); err != nil {
			code = 1
		}
		var res result
		body, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(body, &res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "jasbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		summary[w.name] = res
	}
	fmt.Fprintf(stdout, "%-14s %-20s %14s %-6s %5s\n", "workload", "metric", "value", "unit", "n")
	for _, w := range workloads {
		res, ok := summary[w.name]
		if !ok {
			fmt.Fprintf(stdout, "%-14s (no result)\n", w.name)
			continue
		}
		ms := res.Metrics
		if !res.Trace {
			ms = map[string]metric{"setup_s": res.Metrics["setup_s"], "peak_rss_mb": res.Metrics["peak_rss_mb"]}
			for k, m := range res.Named {
				ms[k] = m
			}
		}
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := ms[k]
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %-6s %5d\n", w.name, k, m.Value, m.Unit, m.N)
		}
		fmt.Fprintf(stdout, "%-14s %-20s %14d\n%-14s %-20s %14d\n",
			w.name, "attempted", res.Attempted, w.name, "failed", res.Failed)
	}
	body, err := json.MarshalIndent(summary, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "summary.json"), append(body, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "jasbench: summary: %v\n", err)
		code = 1
	}
	return code
}
