// Package perf measures the replay harness itself: wall-clock time,
// heap allocation, and peak RSS per experiment, written as a JSON
// trajectory so successive optimization PRs can be compared number to
// number instead of anecdote to anecdote.
//
// The measurements describe the simulator's own performance (how fast
// the experiments regenerate), not the simulated storage system — the
// virtual-time results must stay byte-identical while these numbers
// improve.
package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"time"
)

// Entry is the cost of one measured span (typically one experiment).
type Entry struct {
	Name       string  `json:"name"`
	WallMS     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`      // heap objects allocated during the span
	AllocBytes uint64  `json:"alloc_bytes"` // bytes allocated during the span
	PeakRSSKB  uint64  `json:"peak_rss_kb"` // process high-water RSS at span end

	// Extra carries span-specific metrics beyond the harness costs —
	// the serving-mode load generator records throughput and latency
	// percentiles here so they ride the same trajectory file as the
	// replay wall-clock numbers.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Trajectory is an ordered sequence of measured spans plus enough
// context to compare runs across machines and revisions.
type Trajectory struct {
	Label      string  `json:"label"` // e.g. "seed", "after-alloc-overhaul"
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      float64 `json:"scale,omitempty"`
	Entries    []Entry `json:"entries"`
	TotalMS    float64 `json:"total_ms"`
}

// Tracker accumulates entries. Zero value is ready to use; not safe
// for concurrent Measure calls (podbench runs experiments serially).
type Tracker struct {
	entries []Entry
}

// Measure runs fn and records its wall time, allocation delta, and the
// process peak RSS afterwards under name.
func (t *Tracker) Measure(name string, fn func()) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.entries = append(t.entries, Entry{
		Name:       name,
		WallMS:     float64(wall) / float64(time.Millisecond),
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		PeakRSSKB:  PeakRSSKB(),
	})
}

// Entries returns the recorded spans in measurement order.
func (t *Tracker) Entries() []Entry { return t.entries }

// Append records a caller-built entry (used for spans whose metrics
// are computed outside Measure, e.g. podload's throughput report).
func (t *Tracker) Append(e Entry) { t.entries = append(t.entries, e) }

// Annotate attaches an extra metric to the most recently recorded
// entry; it is a no-op when nothing has been recorded yet.
func (t *Tracker) Annotate(key string, v float64) {
	if len(t.entries) == 0 {
		return
	}
	e := &t.entries[len(t.entries)-1]
	if e.Extra == nil {
		e.Extra = make(map[string]float64)
	}
	e.Extra[key] = v
}

// Trajectory packages the recorded entries with run context.
func (t *Tracker) Trajectory(label string, scale float64) Trajectory {
	total := 0.0
	for _, e := range t.entries {
		total += e.WallMS
	}
	return Trajectory{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Entries:    t.entries,
		TotalMS:    total,
	}
}

// WriteJSON writes the trajectory to path, indented for diffability.
func (t *Tracker) WriteJSON(path, label string, scale float64) error {
	b, err := json.MarshalIndent(t.Trajectory(label, scale), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// MergeJSON adds this tracker's entries to the trajectory already at
// path, so independent runs (e.g. a podload shard sweep after a
// podbench regen) accumulate into one file. An entry whose name is
// already there replaces it in place (regenerating one entry); the
// rest are appended. When path does not exist it behaves like
// WriteJSON; when it does, the existing run context (label, scale, Go
// version) is kept and only entries/total change.
func (t *Tracker) MergeJSON(path, label string, scale float64) error {
	traj := t.Trajectory(label, scale)
	if prev, err := ReadJSON(path); err == nil {
	next:
		for _, e := range traj.Entries {
			prev.TotalMS += e.WallMS
			for i := range prev.Entries {
				if prev.Entries[i].Name == e.Name {
					prev.TotalMS -= prev.Entries[i].WallMS
					prev.Entries[i] = e
					continue next
				}
			}
			prev.Entries = append(prev.Entries, e)
		}
		traj = *prev
	} else if !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJSON loads a trajectory previously written by WriteJSON.
func ReadJSON(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj Trajectory
	if err := json.Unmarshal(b, &traj); err != nil {
		return nil, err
	}
	return &traj, nil
}

// PeakRSSKB reports the process's high-water resident set in KB from
// /proc/self/status (VmHWM). On platforms without procfs it falls back
// to the Go heap's OS reservation, which undercounts but preserves
// relative comparisons between runs of the same binary.
func PeakRSSKB() uint64 {
	if kb, ok := vmHWM(); ok {
		return kb
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Sys / 1024
}

func vmHWM() (uint64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) < 1 {
			return 0, false
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, false
		}
		return kb, true
	}
	return 0, false
}
