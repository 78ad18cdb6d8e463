// Command perfbench is scalegnn's benchmark: one command that runs a named
// workload from a seed, checks the program's outputs, and prints every
// metric by name with its unit.
//
//	perfbench --workload gcn-fullbatch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it turns on an obs tracer plus the metric registries and
// reports the per-layer metrics. Human-readable detail (provenance, per-rung
// load-generator figures, span reconciliation) goes to stderr; stdout holds
// one provenance JSON line followed by the result JSON line, which is always
// the last line. BENCHMARK.json at the repository root lists the workloads
// and metrics; README.md in this directory defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed: the dataset, training and request script derive from it")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatal("--seconds must be positive")
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal("unknown workload %q (want %s)", *workload, workloadNames())
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scale:   scaleFor(fullNodes),
	}

	prov, err := provenance(*workload, opt)
	if err != nil {
		fatal("provenance: %v", err)
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fatal("provenance: %v", err)
	}
	fmt.Fprintln(os.Stderr, "provenance:", string(line))

	res := newResult()
	if err := run(opt, res); err != nil {
		// A workload that cannot run to the end prints no result line.
		fatal("%s: %v", *workload, err)
	}
	out, err := res.line(opt.trace)
	if err != nil {
		fatal("%v", err)
	}
	res.report(os.Stderr, opt.trace)
	fmt.Println(string(line))
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
