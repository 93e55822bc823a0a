package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/workload"
)

// tinyScale shrinks every workload to a fraction of a second of work.
const tinyScale = 0.03

func tinyRun(t *testing.T, w *workloadDef, seed int64, traced bool) *result {
	t.Helper()
	res, err := run(w, options{seed: seed, seconds: 1e-9, traced: traced, scale: tinyScale, out: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadPassesAndPrintsEveryMetric runs each workload
// untraced and traced: the oracle and audits pass, and the output
// prints every declared metric once, with its unit, ending in the JSON
// result.
func TestEveryWorkloadPassesAndPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, 0, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d notes=%q",
					w.name, traced, res.Correct, res.Failed, res.Attempted, res.notes)
			}
			checkPrinted(t, w, traced, res)
		}
	}
}

func checkPrinted(t *testing.T, w *workloadDef, traced bool, res *result) {
	t.Helper()
	want := endToEnd
	if traced {
		want = perLayer
	}
	var buf bytes.Buffer
	printResult(&buf, w, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(last.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := last.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || d.Unit == "" {
			t.Errorf("%s: %s printed as %+v, declared unit %q", w.name, d.Name, m, d.Unit)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if n := strings.Count(buf.String(), " "+d.Name+" = "); n != 1 {
			t.Errorf("%s: %s printed %d times", w.name, d.Name, n)
		}
	}
	if traced {
		sum := 0.0
		for _, l := range cpuLayers {
			sum += last.Metrics["cpu_share."+l].Value
		}
		if sum < 99.99 || sum > 100.01 {
			t.Errorf("%s: cpu shares sum to %v%%", w.name, sum)
		}
	}
}

// simulated reports the deterministic outputs of a run.
func simulated(r *result) map[string]float64 {
	out := map[string]float64{}
	for _, n := range []string{"sim_write_mean_us", "sim_read_mean_us", "sim_p99_us", "writes_removed_pct", "stored_per_user_block"} {
		out[n] = r.Metrics[n].Value
	}
	return out
}

func TestSimulatedMetricsRepeat(t *testing.T) {
	for _, name := range []string{"replay-mail", "serve-mixed"} {
		w := workloadByName(name)
		a, b := simulated(tinyRun(t, w, 3, false)), simulated(tinyRun(t, w, 3, false))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: simulated metrics differ across runs:\n%v\n%v", name, a, b)
		}
	}
}

func TestAnotherSeedChangesTheWorkload(t *testing.T) {
	for _, name := range []string{"replay-mail", "serve-mixed"} {
		w := workloadByName(name)
		a, b := tinyRun(t, w, 0, false), tinyRun(t, w, 11, false)
		if !b.Correct || b.Failed != 0 {
			t.Errorf("%s seed 11: correct=%v failed=%d %q", name, b.Correct, b.Failed, b.notes)
		}
		if reflect.DeepEqual(simulated(a), simulated(b)) {
			t.Errorf("%s: seeds 0 and 11 give the same simulated metrics %v", name, simulated(a))
		}
	}
}

func TestMixedTraceAtSeedZeroIsTheGenerators(t *testing.T) {
	got, prof := mixedTrace(0, 0.01)
	want, _, dims := workload.MixedTrace(0.01)
	if !reflect.DeepEqual(got.Requests, want.Requests) {
		t.Fatal("mixedTrace(0) differs from workload.MixedTrace")
	}
	if prof.FootprintChunks != dims.FootprintChunks || prof.MemoryBytes != dims.MemoryBytes {
		t.Errorf("platform %d chunks / %d B, want %d / %d", prof.FootprintChunks, prof.MemoryBytes, dims.FootprintChunks, dims.MemoryBytes)
	}
}

// TestReplayMailMatchesPodsim checks the default-seed replay against
// the podsim command's report at the same scale.
func TestReplayMailMatchesPodsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs podsim")
	}
	const scale = 0.05
	out, err := exec.Command("go", "run", "github.com/pod-dedup/pod/cmd/podsim",
		"-scheme", "POD", "-trace", "mail", "-scale", "0.05").CombinedOutput()
	if err != nil {
		t.Fatalf("podsim: %v\n%s", err, out)
	}
	w := workloadByName("replay-mail")
	rn := &runner{w: w, o: options{scale: scale / w.scale}}
	p := rn.replayPass(false)
	if p.failed != 0 || p.auditErr != nil {
		t.Fatalf("replay failed=%d audit=%v", p.failed, p.auditErr)
	}
	for _, row := range [][2]string{
		{"Write requests removed", stats.Pct(p.removedPct)},
		{"Physical blocks used", strconv.FormatUint(p.usedBlocks, 10)},
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(row[0]) + `\s+` + regexp.QuoteMeta(row[1]) + `\s*\n`).Match(out) {
			t.Errorf("podsim does not report %s = %s:\n%s", row[0], row[1], out)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	root := b.add(spanWindow, -1, -1, 0, 100)
	b.add(spanWrite, 0, root, 10, 30)
	b.add(spanWrite, 1, root, 20, 40) // overlaps the first
	b.add(spanRead, 2, root, 90, 120) // runs past the parent's end
	tot := tr.totals()
	if got := tot[spanWindow]; got.total != 100 || got.own != 100-30-10 {
		t.Errorf("window total %d self %d, want 100 and 60", got.total, got.own)
	}
	if got := tot[spanWrite]; got.n != 2 || got.total != 40 || got.own != 40 {
		t.Errorf("writes %+v", got)
	}
}

func TestLayerOfInnermostModuleFrame(t *testing.T) {
	for fn, want := range map[string]string{
		modulePath + "/internal/alloc.(*Allocator).Free":       "alloc",
		modulePath + "/internal/server.(*Server).worker.func1": "server",
		modulePath + "/internal/experiments/serving.Table":     "other",
		modulePath + ".(*System).Do":                           "pod",
		"main.(*timedEngine).Write":                            "bench",
		"runtime.memmove":                                      "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps the repository's
// BENCHMARK.json in step with what the command prints.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, declared %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", b.PerLayer, perLayer)
	}
}
