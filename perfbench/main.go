// Command perfbench is the repository's benchmark: it runs one
// workload against the POD engines and the sharded server, checks the
// outputs against an oracle derived from the trace, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	perfbench --workload replay-mail --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics (spans around each call
// into a layer, CPU share by package, registry counts) and writes the
// spans as CSV under --out. perfbench/run.sh builds and runs it from
// the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 0, "workload seed (0 = the generators' own seeds)")
	seconds := flag.Float64("seconds", 10, "how long a run measures, in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, scale: 1, out: *out}
	if o.traced && o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	res, err := run(w, o)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	printResult(os.Stdout, w, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult prints one line per metric and then the JSON result.
func printResult(f io.Writer, w *workloadDef, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "%s %s = %s %s\n", w.name, n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(f, "%s: %s\n", w.name, n)
	}
	fmt.Fprintf(f, "%s: correct=%v attempted=%d failed=%d failed_frac=%g\n",
		w.name, res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(f, string(b))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
