package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spanPass spanName = iota
	spanGen
	spanNew
	spanWarmup
	spanWindow
	spanWrite
	spanRead
	spanSubmit
	spanClose
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"pass", "workload.gen", "system.new", "warmup", "window",
	"engine.write", "engine.read", "server.submit", "server.close",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent is the id of the span that caused this one
// (-1 for a root) and trace the index of the request it served in the
// generated trace (-1 for spans not tied to one request), so all spans
// of one request share it.
type span struct {
	start, end int64
	parent     int64
	trace      int32
	name       spanName
}

// tracer keeps a traced pass's spans in memory, one buffer per
// recording goroutine so recording takes no lock; they are written
// out once the pass is over.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

// spanBuf is one goroutine's span buffer. A span id is the buffer
// number in the high 32 bits and the position in the low 32. The
// methods are no-ops on a nil buffer, which is how untraced passes
// record nothing.
type spanBuf struct {
	t     *tracer
	id    int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf adds a buffer. Call it before the goroutine that owns the
// buffer starts.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, id: int64(len(t.bufs))}
	t.bufs = append(t.bufs, b)
	return b
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.t.epoch)) }

// begin opens a span ending at the matching end call.
func (b *spanBuf) begin(name spanName, trace int32, parent int64) int64 {
	if b == nil {
		return -1
	}
	return b.add(name, trace, parent, b.now(), 0)
}

func (b *spanBuf) end(id int64) {
	if b == nil {
		return
	}
	b.spans[id&0xFFFFFFFF].end = b.now()
}

// add records a finished span and returns its id.
func (b *spanBuf) add(name spanName, trace int32, parent int64, start, end int64) int64 {
	id := b.id<<32 | int64(len(b.spans))
	b.spans = append(b.spans, span{start: start, end: end, parent: parent, trace: trace, name: name})
	return id
}

// spanTotals is the summed duration and self time of every span of one
// name, with the span count.
type spanTotals struct {
	n          int
	total, own int64 // ns
}

// totals sums durations and self times per span name. A span's self
// time is its duration minus the part of its interval that its
// children cover (the union of the child intervals, so concurrent
// children are not subtracted twice).
func (t *tracer) totals() [numSpanNames]spanTotals {
	var out [numSpanNames]spanTotals
	type iv struct{ s, e int64 }
	children := make(map[int64][]iv)
	for _, b := range t.bufs {
		for _, sp := range b.spans {
			if sp.parent >= 0 {
				children[sp.parent] = append(children[sp.parent], iv{sp.start, sp.end})
			}
		}
	}
	for _, b := range t.bufs {
		for i, sp := range b.spans {
			d := sp.end - sp.start
			covered := int64(0)
			if kids := children[b.id<<32|int64(i)]; len(kids) > 0 {
				sort.Slice(kids, func(x, y int) bool { return kids[x].s < kids[y].s })
				cur := iv{-1, -1}
				flush := func() {
					s, e := max(cur.s, sp.start), min(cur.e, sp.end)
					if e > s {
						covered += e - s
					}
				}
				for _, k := range kids {
					if k.s > cur.e {
						flush()
						cur = k
					} else if k.e > cur.e {
						cur.e = k.e
					}
				}
				flush()
			}
			o := &out[sp.name]
			o.n++
			o.total += d
			o.own += d - covered
		}
	}
	return out
}

// write stores every span as CSV: id, parent, trace index, name, start
// and end in nanoseconds since the pass began.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,trace,name,start_ns,end_ns")
	for _, b := range t.bufs {
		for i, sp := range b.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", b.id<<32|int64(i), sp.parent, sp.trace, spanNames[sp.name], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
