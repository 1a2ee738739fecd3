// Command benchjson turns `go test -bench` output on stdin into a small
// JSON summary for checking into the repo (see `make bench-json`).
//
// Shared CI hosts show heavy run-to-run noise (we have measured ±35% on
// the same binary), so each benchmark is run several times and the
// summary keeps min, mean and max per metric. The minimum is the
// least-contended sample and is what the README perf table cites.
//
// Usage:
//
//	go test -run '^$' -bench X -benchmem -count 5 . | benchjson -o BENCH.json
//
// With -baseline PREV.json, each benchmark also carries its min-vs-min
// speedup over the same benchmark in the previous summary
// (baseline min ns/op ÷ current min ns/op; >1 means faster now), so a
// PR's perf delta is readable straight from the checked-in artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type stat struct {
	Runs int     `json:"runs"`
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func newStat(xs []float64) *stat {
	if len(xs) == 0 {
		return nil
	}
	s := &stat{Runs: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	return s
}

type entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations_per_run"`
	NsPerOp     *stat   `json:"ns_per_op,omitempty"`
	InstrPerSec *stat   `json:"instr_per_s,omitempty"`
	RunsPerSec  *stat   `json:"runs_per_s,omitempty"`
	SimsPerCell *stat   `json:"sims_per_cell,omitempty"`
	BytesPerOp  *stat   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *stat   `json:"allocs_per_op,omitempty"`
	VsBaseline  float64 `json:"speedup_vs_baseline,omitempty"`
	samples     map[string][]float64
}

// loadBaseline reads a previous benchjson summary and returns each
// benchmark's minimum ns/op, keyed by name.
func loadBaseline(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev struct {
		Benchmarks []struct {
			Name    string `json:"name"`
			NsPerOp *stat  `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &prev); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	mins := make(map[string]float64, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		if b.NsPerOp != nil && b.NsPerOp.Min > 0 {
			mins[b.Name] = b.NsPerOp.Min
		}
	}
	return mins, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	outLong := flag.String("out", "", "output file (alias of -o)")
	baseline := flag.String("baseline", "", "previous summary JSON; adds per-benchmark min-vs-min speedups")
	flag.Parse()
	if *out == "" {
		out = outLong
	}

	var baseMins map[string]float64
	if *baseline != "" {
		var err error
		if baseMins, err = loadBaseline(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	var order []string
	byName := map[string]*entry{}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix go test appends. It only appears
		// when GOMAXPROCS > 1, and benchjson runs in the same pipeline as
		// the benchmarks, so match against our own value — a blanket
		// "trailing -number" strip would also eat sub-benchmark names
		// like ServeRuns/parallel-4.
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			if suffix := fmt.Sprintf("-%d", procs); strings.HasSuffix(name, suffix) {
				name = name[:len(name)-len(suffix)]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := byName[name]
		if e == nil {
			e = &entry{Name: name, samples: map[string][]float64{}}
			byName[name] = e
			order = append(order, name)
		}
		e.Iterations = iters
		// The rest is value/unit pairs: "123 ns/op", "456 allocs/op", ...
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			e.samples[fields[i+1]] = append(e.samples[fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	var entries []*entry
	for _, name := range order {
		e := byName[name]
		e.NsPerOp = newStat(e.samples["ns/op"])
		e.InstrPerSec = newStat(e.samples["instr/s"])
		e.RunsPerSec = newStat(e.samples["runs/s"])
		e.SimsPerCell = newStat(e.samples["sims/cell"])
		e.BytesPerOp = newStat(e.samples["B/op"])
		e.AllocsPerOp = newStat(e.samples["allocs/op"])
		if prev, ok := baseMins[name]; ok && e.NsPerOp != nil && e.NsPerOp.Min > 0 {
			e.VsBaseline = prev / e.NsPerOp.Min
		}
		entries = append(entries, e)
	}

	summary := struct {
		Go         string   `json:"go"`
		NumCPU     int      `json:"num_cpu"`
		GoMaxProcs int      `json:"gomaxprocs"`
		Protocol   string   `json:"protocol"`
		Baseline   string   `json:"baseline,omitempty"`
		Benchmarks []*entry `json:"benchmarks"`
		SweepWin   float64  `json:"sweep_grid_speedup,omitempty"`
		ShardWin   float64  `json:"shard_speedup,omitempty"`
	}{
		Go: runtime.Version(),
		// Host metadata: the sharded-vs-fused numbers only mean something
		// relative to the parallelism of the host that produced them (a
		// 1-vCPU host auto-collapses sharding to the fused loop, so its
		// shard_speedup is ~1 by design).
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Protocol:   "repeated runs per benchmark; cite min (least-contended sample) on noisy shared hosts; speedup_vs_baseline = baseline min ns/op over this min ns/op",
		Baseline:   *baseline,
		Benchmarks: entries,
	}
	// Tentpole ratio: the same what-if grid with split-key reuse off over
	// on — how much wall clock the shared request-level runs save.
	if s, u := byName["BenchmarkSweepGridShared"], byName["BenchmarkSweepGridUnshared"]; s != nil && u != nil &&
		s.NsPerOp != nil && u.NsPerOp != nil && s.NsPerOp.Min > 0 {
		summary.SweepWin = u.NsPerOp.Min / s.NsPerOp.Min
	}
	// Shard ratio: the fused loop over the core-sharded schedule, both
	// consuming the identical interleaved multi-core feed, min-vs-min.
	if s, f := byName["BenchmarkDetailStreamSharded"], byName["BenchmarkDetailStreamFusedMulti"]; s != nil && f != nil &&
		s.NsPerOp != nil && f.NsPerOp != nil && s.NsPerOp.Min > 0 {
		summary.ShardWin = f.NsPerOp.Min / s.NsPerOp.Min
	}

	buf, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
