// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads for a fixed wall time, checks every output
// against a reference built in set-up, and prints the end-to-end
// metrics as one JSON object on the last line of standard output. With
// -trace 1 it runs the traced pass instead and prints the per-layer
// metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// Workloads, metrics and the layer each metric belongs to are described
// in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"cold-grid", "lag-fleet", "warm-serve"}

// workload is one benchmark workload. setUp may be called several
// times: each call rebuilds the inputs and the reference outputs from
// the seed, so the set-up time can be reported as a median.
type workload interface {
	setUp() error
	// measure runs closed-loop units untraced for at least d.
	measure(d time.Duration) (*run, error)
	// traced runs the per-layer pass for at least d, recording spans in
	// rec and layer counts in the returned totals.
	traced(d time.Duration, rec *recorder) (*totals, error)
	close()
}

// config is what every workload is built from.
type config struct {
	seed    int64
	workers int    // campaign workers, callers and server slots: nproc
	tmp     string // scratch directory for on-disk stores
}

// setups is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setups = 3

// spanDir is where traced runs write their spans.
var spanDir = filepath.Join(".bench_build", "perfbench-spans")

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "cold-grid":
		return newColdGrid(cfg), nil
	case "lag-fleet":
		return newLagFleet(cfg), nil
	case "warm-serve":
		return newWarmServe(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "cold-grid", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "input seed (1 is the default seed, 2 the held-out seed)")
	seconds := flag.Int("seconds", 10, "wall seconds one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runAll(names, config{seed: *seed, workers: runtime.NumCPU(), tmp: tmp},
		time.Duration(*seconds)*time.Second, *trace == 1)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs the named workloads one after another in this process.
// With several workloads, metric names are prefixed "<workload>/".
func runAll(names []string, cfg config, d time.Duration, traced bool) (*result, error) {
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, err := newWorkload(name, cfg)
		if err != nil {
			return nil, err
		}
		r, err := runOne(name, w, cfg, d, traced)
		w.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			out.Metrics[k] = m
		}
	}
	return out, nil
}

// runOne sets a workload up, measures it and prints its metrics and
// its record line.
func runOne(name string, w workload, cfg config, d time.Duration, traced bool) (*result, error) {
	setupS := make([]float64, setups)
	for i := range setupS {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS[i] = time.Since(t0).Seconds()
	}
	var (
		res    *result
		passes int
	)
	if traced {
		// The untraced half gives the base for the tracing overhead.
		base, err := w.measure(d / 2)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		tot, err := w.traced(d/2, rec)
		if err != nil {
			return nil, err
		}
		if err := rec.writeJSONL(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))); err != nil {
			return nil, err
		}
		res = layerResult(rec, tot, base)
		res.Attempted += base.units
		res.Failed += base.failed
		res.Correct = res.Failed == 0
		passes = base.passes + tot.passes
	} else {
		r, err := w.measure(d)
		if err != nil {
			return nil, err
		}
		res = endToEnd(r, median(setupS))
		passes = r.passes
	}
	printHuman(name, res)
	rec := map[string]any{
		"workload": name, "seed": cfg.seed, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workers": cfg.workers, "go": runtime.Version(), "goarch": runtime.GOARCH,
		"cpu": cpuModel(), "setups": setups, "passes": passes,
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("record %s\n", line)
	return res, nil
}

// endToEnd turns an untraced run into the end-to-end metrics.
func endToEnd(r *run, setupS float64) *result {
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.units,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":           {setupS, "s"},
			"units_per_s":       {median(r.rate), "1/s"},
			"cpu_ms_per_unit":   {median(r.cpuPer), "ms"},
			"unit_p50_ms":       {median(r.p50), "ms"},
			"unit_p99_ms":       {median(r.p99), "ms"},
			"alloc_mb_per_unit": {median(r.allocPer) / 1e6, "MB"},
			"peak_rss_mb":       {peakRSSMB(), "MB"},
		},
	}
}

// printHuman prints one "name value unit" line per metric, sorted.
func printHuman(name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("%-10s %-28s %14.6g %s\n", name, k, m.Value, m.Unit)
	}
}

// scratchDir creates the run's scratch directory under .bench_build,
// which the repository ignores.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-tmp-")
}

// cpuModel reads the processor name for the record line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
