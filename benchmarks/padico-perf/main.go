// Command padico-perf is the repository's two-clock benchmark: five
// long-run workloads, end-to-end metrics on the host clock reported as
// medians over the iterations of a run, exact virtual-time figures and
// counters, and a per-layer ladder. See benchmarks/README.md.
//
// The acceptance driver runs it once per workload:
//
//	go run -C benchmarks/padico-perf padico/benchmarks/padico-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	// The simulation is sequential (one proc runs at a time); two Ps let
	// the kernel goroutine and the running proc hand over without
	// queueing behind the garbage collector. Fixed so that runs on
	// bigger machines measure the same program.
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("padico-perf", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds      = fs.Float64("seconds", 20, "measuring budget of one run, in seconds")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, harness spans off; 1: traced pass, per-layer metrics")
		iters        = fs.Int("iters", 0, "measure exactly this many iterations instead of filling -seconds")
		scale        = fs.Float64("scale", 1, "multiply every operation count (smoke tests only)")
		out          = fs.String("out", "", "append one JSON record per workload to this file, for -compare")
		traceDir     = fs.String("tracedir", ".bench_out", "where the traced pass writes trace-<workload>.json")
		compare      = fs.Bool("compare", false, "compare two -out files: padico-perf -compare a.json b.json")
		selfcheck    = fs.Bool("selfcheck", false, "run the suite twice and compare the two")
		bounds       = fs.String("bounds", "", "path of BENCHMARK.json (default: found from the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "padico-perf:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two files"))
		}
		worse, err := compareFiles(os.Stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 || *scale <= 0 || *iters < 0 {
		return fail(errors.New("-seconds and -scale must be positive, -iters not negative"))
	}
	var suite []*workload
	if *workloadName == "all" {
		suite = workloads()
	} else if w := findWorkload(*workloadName); w != nil {
		suite = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	tmpRoot, err := filepath.Abs(filepath.Join(".bench_tmp", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	defer os.Remove(filepath.Dir(tmpRoot)) // .bench_tmp itself, once no other run is using it
	defer os.RemoveAll(tmpRoot)
	cfg := &runConfig{seed: *seed, seconds: *seconds, iters: *iters, scale: *scale,
		traced: *trace == 1, tmpRoot: tmpRoot, outDir: *traceDir}

	if *selfcheck {
		worse, err := selfCheck(cfg, suite, *bounds)
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	var last *result
	for _, w := range suite {
		r, err := runWorkload(w, cfg)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: cfg.seed, Trace: *trace, Result: r}); err != nil {
				return fail(err)
			}
		}
		last = r
	}
	if len(suite) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	return 0
}

// runWorkload makes one run of one workload and prints its table. With
// cfg.traced it is the traced pass and the result holds the per-layer
// metrics; otherwise spans are off and it holds the end-to-end metrics.
func runWorkload(w *workload, cfg *runConfig) (*result, error) {
	started := time.Now()
	r := &runner{w: w, cfg: cfg}
	if !cfg.traced {
		s, err := r.measure()
		if err != nil {
			return nil, err
		}
		res := endToEnd(s)
		printTable(os.Stdout, w.name, endToEndMetrics, res, s.n(), float64(s.simNs)/1e9)
		fmt.Printf("  model unvalidated: the paper's figures are not in the repository, so no error against them is given; run took %.1f s\n",
			time.Since(started).Seconds())
		return res, nil
	}
	tr := newTracer()
	plain, traced, err := r.measureTraced(tr)
	if err != nil {
		return nil, err
	}
	ladder := map[string]float64{}
	if w.ladder != nil {
		if err := w.ladder(cfg, ladder); err != nil {
			return nil, err
		}
	}
	res := perLayer(w, plain, traced, ladder)
	printTable(os.Stdout, w.name, perLayerMetrics, res, traced.n(), float64(traced.simNs)/1e9)
	printLayers(os.Stdout, tr.layerTable())
	path, err := tr.write(cfg.outDir, w.name, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("  trace written to %s; run took %.1f s\n", path, time.Since(started).Seconds())
	return res, nil
}
