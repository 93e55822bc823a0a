package main

import "github.com/pod-dedup/pod/internal/trace"

// expected is the last acknowledged content of every slot a trace
// wrote, indexed by LBA. It is derived from the trace after the run,
// never maintained on the clock.
type expected struct {
	id      []uint64
	written []bool
	live    int // slots written at least once
	// spilled holds the (shard, LBA) slots that writes crossing a
	// routing granule left on the serving shard rather than the LBA's
	// owner: live content, but not readable by LBA.
	spilled map[[2]uint64]bool
}

func (x *expected) set(lba uint64, id uint64) {
	if lba >= uint64(len(x.id)) {
		n := max(2*uint64(len(x.id)), lba+1)
		x.id = append(x.id, make([]uint64, n-uint64(len(x.id)))...)
		x.written = append(x.written, make([]bool, n-uint64(len(x.written)))...)
	}
	if !x.written[lba] {
		x.written[lba] = true
		x.live++
	}
	x.id[lba] = id
}

// expect replays the trace's writes into the expected map: slot j of a
// write holds its j-th content ID.
//
// owner, when not nil, is the server's routing: a write is served by
// the shard owning its first LBA, so a slot it covers that another
// shard owns is spilled rather than expected at that LBA.
func expect(tr *trace.Trace, owner func(lba uint64) int) *expected {
	x := &expected{spilled: map[[2]uint64]bool{}}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Op != trace.Write {
			continue
		}
		for j, id := range r.Content {
			x.put(owner, r.LBA, j, uint64(id))
		}
	}
	return x
}

// put records that slot j of a write at base holds id.
func (x *expected) put(owner func(lba uint64) int, base uint64, j int, id uint64) {
	lba := base + uint64(j)
	if owner != nil {
		if s := owner(base); owner(lba) != s {
			x.spilled[[2]uint64{uint64(s), lba}] = true
			return
		}
	}
	x.set(lba, id)
}

// liveSlots counts the logical slots holding live content.
func (x *expected) liveSlots() int { return x.live + len(x.spilled) }

// check reads back every slot the map covers and counts those whose
// content differs from the expected map, including never-written
// slots that read as mapped.
func (x *expected) check(read func(lba uint64) (uint64, bool)) int {
	bad := 0
	for lba := range x.id {
		got, ok := read(uint64(lba))
		if ok != x.written[lba] || (ok && got != x.id[lba]) {
			bad++
		}
	}
	return bad
}
