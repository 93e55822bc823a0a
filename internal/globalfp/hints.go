package globalfp

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/probe"
)

// hintSlot is one installed hint: the remote canonical it names and
// the ring slot that records its install order.
type hintSlot struct {
	canon alloc.PBA
	slot  uint32
}

// ringSlot names the fingerprint installed at one ring position; live
// drops when a revoke or purge deletes that hint before eviction.
type ringSlot struct {
	fp   chunk.Fingerprint
	live bool
}

// hintTable is a shard's bounded fp → remote-canonical table: the
// grants the tier pushed to this shard, kept apart from the iCache so
// hint installs never evict the shard's own hot fingerprints. Eviction
// is FIFO over installs: ring[i] names the hint installed at slot i,
// and once the ring has grown to capacity an install evicts the hint
// whose slot it reuses. Revokes and purges delete hints in place and
// free their slots.
type hintTable struct {
	m        *probe.Map[chunk.Fingerprint, hintSlot]
	ring     []ringSlot
	capacity int
	next     int
	evicted  int64
}

func newHintTable(capacity int) *hintTable {
	return &hintTable{
		m:        probe.NewMap[chunk.Fingerprint, hintSlot](0),
		capacity: max(capacity, 1),
	}
}

// get returns the canonical the hint for fp names.
func (h *hintTable) get(fp chunk.Fingerprint) (alloc.PBA, bool) {
	e, ok := h.m.Get(fp)
	return e.canon, ok
}

// install binds fp to canon. A re-grant of a hinted fingerprint
// rebinds it in place and keeps its install slot.
func (h *hintTable) install(fp chunk.Fingerprint, canon alloc.PBA) {
	e, inserted := h.m.Ref(fp)
	if !inserted {
		e.canon = canon
		return
	}
	e.canon = canon
	if len(h.ring) < h.capacity {
		e.slot = uint32(len(h.ring))
		h.ring = append(h.ring, ringSlot{fp: fp, live: true})
		return
	}
	i := h.next
	if h.next++; h.next == len(h.ring) {
		h.next = 0
	}
	e.slot = uint32(i)
	if old := h.ring[i]; old.live {
		h.m.Delete(old.fp) // e is not used past this point
		h.evicted++
	}
	h.ring[i] = ringSlot{fp: fp, live: true}
}

// revoke drops the hint for fp only while it still names canon: a
// revoke of an older canonical must not drop a newer grant.
func (h *hintTable) revoke(fp chunk.Fingerprint, canon alloc.PBA) {
	if e, ok := h.m.Get(fp); ok && e.canon == canon {
		h.ring[e.slot].live = false
		h.m.Delete(fp)
	}
}

// purgeOwner drops every hint naming a canonical on shard owner.
func (h *hintTable) purgeOwner(owner int) {
	var dead []chunk.Fingerprint
	h.m.Each(func(fp chunk.Fingerprint, e hintSlot) bool {
		if o, _ := alloc.RemoteParts(e.canon); o == owner {
			h.ring[e.slot].live = false
			dead = append(dead, fp)
		}
		return true
	})
	for _, fp := range dead {
		h.m.Delete(fp)
	}
}

// clear drops every hint; the eviction count is lifetime and stays.
func (h *hintTable) clear() {
	h.m = probe.NewMap[chunk.Fingerprint, hintSlot](0)
	h.ring = h.ring[:0]
	h.next = 0
}

func (h *hintTable) len() int { return h.m.Len() }
