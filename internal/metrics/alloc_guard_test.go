package metrics

import "testing"

// TestHotPathInstrumentsAllocFree guards the per-request metric
// updates: counter increments, gauge adjustments, and histogram
// observations sit on every served request, so they must never
// allocate once the instruments exist (handles are resolved at
// construction time; see Registry).
func TestHotPathInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes_total")
	g := r.Gauge("queue_depth")
	h := r.Histogram("write_rt_us")
	avg := testing.AllocsPerRun(500, func() {
		c.Inc()
		c.Add(2)
		g.Add(1)
		g.Add(-1)
		h.Add(4096)
	})
	if avg != 0 {
		t.Fatalf("metric updates: %.2f allocs/op, want 0", avg)
	}
}
