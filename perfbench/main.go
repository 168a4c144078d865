// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed window, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer split (--trace 1) as a
// JSON object on its last line. See README.md for the workloads, the
// metrics and the layer each one belongs to.
//
//	go run . --workload hoqri-walmart8 --seed 1 --seconds 25 --trace 0
//
// perfbench/run.py builds this package and runs it the same way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one benchmark run's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	nproc    int
	outDir   string
	// tracer is non-nil in a traced (--trace 1) run.
	tracer *Tracer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: counts, metrics, and human-readable lines.
type result struct {
	attempted, failed int
	checkFailed       bool
	metrics           map[string]Metric
	lines             []string
}

func newResult() *result { return &result{metrics: map[string]Metric{}} }

func (r *result) metric(name string, v float64, unit string) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *result) info(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail counts one failed operation; the first few are printed.
func (r *result) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		r.info("FAILED: %v", err)
	}
}

// wrong counts one operation whose output failed its check.
func (r *result) wrong(err error) {
	r.checkFailed = true
	r.fail(err)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name: hoqri-walmart8, hooi-school5 or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer split from a traced run, 0 the end-to-end metrics")
	outDir := flag.String("out", ".bench_build", "directory for the spool, snapshots and span files")
	commit := flag.String("commit", "unknown", "commit or source digest stamped on the result")
	recordRefs := flag.String("record-refs", "", "print references.json for seeds FIRST:LAST and exit")
	flag.Parse()

	if *recordRefs != "" {
		first, last, ok := strings.Cut(*recordRefs, ":")
		a, err1 := strconv.ParseInt(first, 10, 64)
		b, err2 := strconv.ParseInt(last, 10, 64)
		if !ok || err1 != nil || err2 != nil || a > b {
			return fmt.Errorf("--record-refs wants FIRST:LAST, got %q", *recordRefs)
		}
		out, err := recordReferences(a, b)
		if err != nil {
			return err
		}
		_, err = fmt.Printf("%s\n", out)
		return err
	}

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), outDir: *outDir}
	if *trace == 1 {
		cfg.tracer = NewTracer()
	}
	// Every thread count in a run is nproc at most.
	if runtime.GOMAXPROCS(0) > cfg.nproc {
		runtime.GOMAXPROCS(cfg.nproc)
	}

	var res *result
	var err error
	if w, ok := decomposeWorkloads[cfg.workload]; ok {
		res, err = runDecompose(cfg, w)
	} else if cfg.workload == serveWorkload {
		res, err = runServe(cfg)
	} else {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}

	stamp, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": *seconds, "trace": *trace,
		"nproc": cfg.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": *commit,
	})
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", stamp)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	if cfg.tracer != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(cfg.tracer, path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{!res.checkFailed, res.attempted, res.failed, res.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(last))
	return nil
}

func writeSpans(t *Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
