package main

import (
	"time"

	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// timedEngine is the POD engine with every Write and Read timed in wall
// time. Embedding promotes the rest of the engine's surface — Base,
// Flush and CrashAndRecover — so the server's tier, drain and recovery
// paths see the engine they would see unwrapped.
type timedEngine struct {
	*core.SelectDedupe
	log *callLog
}

// CheckConsistency exposes the substrate audit under the name the
// server's CheckConsistency looks for on each shard engine.
func (e *timedEngine) CheckConsistency() error { return e.Base().CheckConsistency() }

func (e *timedEngine) Write(r *trace.Request) (sim.Duration, error) {
	t0 := time.Now()
	d, err := e.SelectDedupe.Write(r)
	e.log.record(spanWrite, t0)
	return d, err
}

func (e *timedEngine) Read(r *trace.Request) (sim.Duration, error) {
	t0 := time.Now()
	d, err := e.SelectDedupe.Read(r)
	e.log.record(spanRead, t0)
	return d, err
}

// callLog collects the wall latency of each request one goroutine
// hands to an engine and, in traced passes, one span per engine call.
type callLog struct {
	writes, reads []int64 // ns per request

	// index[k] is the trace index of the k-th call.
	index []int32
	seq   int
	// submitted[i], when set, is when request i was handed to the
	// server, in ns since epoch: its latency runs from then to the end
	// of its engine call, so it includes the wait in the shard queue.
	submitted []int64
	epoch     time.Time

	spans *spanBuf // nil in untraced passes
	// parent[i] is the span that caused request i, or parentAll when
	// parent is nil.
	parent    []int64
	parentAll int64
}

func (l *callLog) record(name spanName, t0 time.Time) {
	t1 := time.Now()
	i := int32(-1)
	if l.seq < len(l.index) {
		i = l.index[l.seq]
	}
	l.seq++
	lat := int64(t1.Sub(t0))
	if l.submitted != nil && i >= 0 {
		lat = int64(t1.Sub(l.epoch)) - l.submitted[i]
	}
	if name == spanWrite {
		l.writes = append(l.writes, lat)
	} else {
		l.reads = append(l.reads, lat)
	}
	if l.spans == nil {
		return
	}
	parent := l.parentAll
	if l.parent != nil && i >= 0 {
		parent = l.parent[i]
	}
	l.spans.add(name, i, parent, int64(t0.Sub(l.spans.t.epoch)), int64(t1.Sub(l.spans.t.epoch)))
}
