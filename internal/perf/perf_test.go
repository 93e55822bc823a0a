package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestMeasureRecordsSpan(t *testing.T) {
	var tr Tracker
	sink := make([][]byte, 1000)
	tr.Measure("alloc-burst", func() {
		for i := range sink {
			sink[i] = make([]byte, 4096)
		}
	})
	_ = sink
	es := tr.Entries()
	if len(es) != 1 {
		t.Fatalf("entries = %d, want 1", len(es))
	}
	e := es[0]
	if e.Name != "alloc-burst" {
		t.Fatalf("name = %q", e.Name)
	}
	if e.WallMS < 0 {
		t.Fatalf("wall = %v", e.WallMS)
	}
	if e.Allocs == 0 || e.AllocBytes < 1000*4096 {
		t.Fatalf("allocation delta not captured: allocs=%d bytes=%d", e.Allocs, e.AllocBytes)
	}
	if e.PeakRSSKB == 0 {
		t.Fatal("peak RSS must be non-zero")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var tr Tracker
	tr.Measure("a", func() {})
	tr.Measure("b", func() {})
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := tr.WriteJSON(path, "unit", 0.5); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Trajectory
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Label != "unit" || got.Scale != 0.5 || len(got.Entries) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Entries[0].Name != "a" || got.Entries[1].Name != "b" {
		t.Fatal("entry order not preserved")
	}
	if got.GoVersion == "" || got.GOMAXPROCS < 1 {
		t.Fatal("run context missing")
	}
}

func TestPeakRSSMonotonicSignal(t *testing.T) {
	if PeakRSSKB() == 0 {
		t.Fatal("PeakRSSKB returned 0")
	}
}

func TestAppendAndAnnotate(t *testing.T) {
	var tr Tracker
	tr.Annotate("ignored", 1) // no entries yet: must not panic
	tr.Append(Entry{Name: "podload", Extra: map[string]float64{"throughput_rps": 123}})
	tr.Annotate("p99_us", 4500)
	es := tr.Entries()
	if len(es) != 1 {
		t.Fatalf("%d entries", len(es))
	}
	if es[0].Extra["throughput_rps"] != 123 || es[0].Extra["p99_us"] != 4500 {
		t.Fatalf("extra metrics lost: %+v", es[0].Extra)
	}
	tr.Measure("span", func() {})
	tr.Annotate("k", 7)
	if tr.Entries()[1].Extra["k"] != 7 {
		t.Fatal("annotate after Measure lost")
	}
}

func TestMergeJSONReplacesSameNameEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var first Tracker
	first.Append(Entry{Name: "a", WallMS: 10})
	first.Append(Entry{Name: "b", WallMS: 20})
	if err := first.WriteJSON(path, "seed", 1); err != nil {
		t.Fatal(err)
	}
	var again Tracker
	again.Append(Entry{Name: "a", WallMS: 3})
	again.Append(Entry{Name: "c", WallMS: 5})
	if err := again.MergeJSON(path, "rerun", 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "seed" || len(got.Entries) != 3 {
		t.Fatalf("merged trajectory %+v, want label seed and 3 entries", got)
	}
	for i, want := range []Entry{{Name: "a", WallMS: 3}, {Name: "b", WallMS: 20}, {Name: "c", WallMS: 5}} {
		if e := got.Entries[i]; e.Name != want.Name || e.WallMS != want.WallMS {
			t.Fatalf("entry %d = %s/%v, want %s/%v", i, e.Name, e.WallMS, want.Name, want.WallMS)
		}
	}
	if got.TotalMS != 28 {
		t.Fatalf("total %v, want 28", got.TotalMS)
	}
}
