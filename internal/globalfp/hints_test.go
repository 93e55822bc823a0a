// Internal-package tests for the hint table: FIFO eviction, revoke and
// reset semantics, and the property that hint installs leave the
// shard's iCache exactly as it would be without the tier.
package globalfp

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/index"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

func fpOf(id chunk.ContentID) chunk.Fingerprint {
	ch := chunk.Chunk{Content: id}
	return fper.Fingerprint(&ch)
}

func TestHintTableEvictsFIFOAtCapacity(t *testing.T) {
	h := newHintTable(4)
	for id := 0; id < 6; id++ {
		h.install(fpOf(chunk.ContentID(id)), alloc.MakeRemote(1, alloc.PBA(id)))
	}
	if h.len() != 4 || h.evicted != 2 {
		t.Fatalf("len %d evicted %d after 6 installs at capacity 4, want 4 and 2", h.len(), h.evicted)
	}
	for id := 0; id < 6; id++ {
		_, ok := h.get(fpOf(chunk.ContentID(id)))
		if want := id >= 2; ok != want {
			t.Fatalf("hint %d present=%v, want %v (oldest installs go first)", id, ok, want)
		}
	}

	// A re-grant rebinds in place and keeps its install slot: 2 is
	// still the oldest and the next install evicts it.
	h.install(fpOf(2), alloc.MakeRemote(1, 99))
	if c, _ := h.get(fpOf(2)); c != alloc.MakeRemote(1, 99) {
		t.Fatalf("re-grant not rebound: %v", c)
	}
	h.install(fpOf(6), alloc.MakeRemote(1, 6))
	if _, ok := h.get(fpOf(2)); ok || h.evicted != 3 {
		t.Fatalf("rebound hint 2 survived its slot's reuse (evicted %d)", h.evicted)
	}

	// A revoked entry's slot is free: reinstalling the same fingerprint
	// takes a new slot, and the old slot's reuse must not evict it.
	h.revoke(fpOf(4), alloc.MakeRemote(1, 4))
	h.install(fpOf(4), alloc.MakeRemote(1, 44)) // takes 3's slot, evicting it
	h.install(fpOf(7), alloc.MakeRemote(1, 7))  // takes 4's old slot
	if c, ok := h.get(fpOf(4)); !ok || c != alloc.MakeRemote(1, 44) {
		t.Fatalf("reinstalled hint evicted by its stale slot: %v,%v", c, ok)
	}
	if _, ok := h.get(fpOf(3)); ok {
		t.Fatal("hint 3 outlived its slot")
	}
	if h.len() != 4 || h.evicted != 4 {
		t.Fatalf("len %d evicted %d, want 4 and 4", h.len(), h.evicted)
	}
}

// TestStaleRevokeKeepsNewerGrant: a revoke names the canonical being
// recalled; when a newer grant has already rebound the fingerprint to
// another canonical, the revoke must leave that binding alone.
func TestStaleRevokeKeepsNewerGrant(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	fp := fpOf(4242)
	older, newer := alloc.MakeRemote(1, 7), alloc.MakeRemote(2, 9)

	tier.send(0, message{kind: msgGrant, fp: fp, canon: older, from: 1, epoch: tier.Epoch(1)})
	tier.send(0, message{kind: msgGrant, fp: fp, canon: newer, from: 2, epoch: tier.Epoch(2)})
	tier.send(0, message{kind: msgRevoke, fp: fp, canon: older, from: 1, epoch: tier.Epoch(1)})
	agents[0].DrainAll(0)
	if c, ok := agents[0].Hint(fp); !ok || c != newer {
		t.Fatalf("stale revoke dropped the newer grant: %v,%v want %d", c, ok, newer)
	}

	tier.send(0, message{kind: msgRevoke, fp: fp, canon: newer, from: 2, epoch: tier.Epoch(2)})
	agents[0].DrainAll(0)
	if _, ok := agents[0].Hint(fp); ok {
		t.Fatal("revoke of the live binding kept the hint")
	}
}

// TestRecoverResetClearsHints: hints are DRAM state and die with the
// shard's crash.
func TestRecoverResetClearsHints(t *testing.T) {
	tier, agents := fenceCluster(t, 2)
	a := agents[0]
	fp := fpOf(99)
	tier.send(0, message{kind: msgGrant, fp: fp, canon: alloc.MakeRemote(1, 3), from: 1, epoch: tier.Epoch(1)})
	a.DrainAll(0)
	if _, ok := a.Hint(fp); !ok {
		t.Fatal("grant not installed")
	}
	if _, err := a.b.RecoverLoad(); err != nil {
		t.Fatal(err)
	}
	a.b.RecoverFinish(nil) // runs the agent's RecoverReset
	if _, ok := a.Hint(fp); ok {
		t.Fatal("hint survived recovery")
	}
	if got := a.b.Reg.Snapshot().Gauges["globalfp_hint_entries"]; got != 0 {
		t.Fatalf("globalfp_hint_entries = %d after recovery, want 0", got)
	}
}

// TestHintInstallsLeaveICacheUntouched is the property the hint table
// exists for: on a random workload, a POD shard that also receives more
// grants than its hint table holds ends with exactly the iCache state
// (index bindings, hit/miss counters, partition, ghost and swap-in
// accounting) and engine gauges of the same shard without the tier.
func TestHintInstallsLeaveICacheUntouched(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		plain := core.NewPOD(fenceConfig())
		bgdedup.Attach(plain, bgdedup.Params{})

		tier, err := NewTier(2, Params{})
		if err != nil {
			t.Fatal(err)
		}
		tier.Stop()
		tiered := core.NewPOD(fenceConfig())
		bgdedup.Attach(tiered, bgdedup.Params{})
		a, _ := Attach(tiered, tier, 0)
		// grants only: the shard's own advertisements would pin its
		// blocks and change what gets freed, which is not what this
		// property is about
		tiered.Base().Ads = nil
		capacity := a.hints.capacity

		rng := rand.New(rand.NewSource(seed))
		var now sim.Time
		granted := 0
		for r := 0; r < 3000; r++ {
			now = now.Add(sim.Duration(rng.Intn(2000)) * sim.Microsecond)
			req := trace.Request{Time: now, LBA: uint64(rng.Intn(20000)), N: 1 + rng.Intn(8)}
			if rng.Intn(10) < 7 {
				req.Op = trace.Write
				start := rng.Intn(3000)
				for i := 0; i < req.N; i++ {
					req.Content = append(req.Content, chunk.ContentID(start+i))
				}
			} else {
				req.Op = trace.Read
			}
			for _, e := range []engine.Engine{plain, tiered} {
				r := req
				var err error
				if r.Op == trace.Write {
					_, err = e.Write(&r)
				} else {
					_, err = e.Read(&r)
				}
				if err != nil {
					t.Fatalf("seed %d lba %d: %v", seed, r.LBA, err)
				}
			}
			if r%10 == 0 {
				// content never written anywhere: the hints can never
				// be hit, so only their installation is in play
				for k := 0; k < 50; k++ {
					tier.send(0, message{
						kind: msgGrant, fp: fpOf(chunk.ContentID(1<<40 + granted)),
						canon: alloc.MakeRemote(1, alloc.PBA(granted%1000)),
						from:  1, epoch: tier.Epoch(1),
					})
					granted++
				}
			}
		}
		a.DrainAll(now)
		if granted <= capacity || a.hints.evicted == 0 {
			t.Fatalf("seed %d: %d grants against capacity %d evicted %d; the property needs overflow", seed, granted, capacity, a.hints.evicted)
		}

		pb, tb := plain.Base(), tiered.Base()
		if ph, th := pb.IC.Index().Hits(), tb.IC.Index().Hits(); ph != th {
			t.Fatalf("seed %d: index hits %d with the tier, %d without", seed, th, ph)
		}
		if pm, tm := pb.IC.Index().Misses(), tb.IC.Index().Misses(); pm != tm {
			t.Fatalf("seed %d: index misses %d with the tier, %d without", seed, tm, pm)
		}
		want := map[chunk.Fingerprint]index.Entry{}
		pb.IC.Index().Each(func(fp chunk.Fingerprint, e index.Entry) bool { want[fp] = e; return true })
		n := 0
		tb.IC.Index().Each(func(fp chunk.Fingerprint, e index.Entry) bool {
			if w, ok := want[fp]; !ok || w != e {
				t.Fatalf("seed %d: index entry %v → %v differs from the tier-free shard (%v,%v)", seed, fp, e, w, ok)
			}
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("seed %d: %d index entries with the tier, %d without", seed, n, len(want))
		}
		pg, tg := pb.Reg.Snapshot().Gauges, tb.Reg.Snapshot().Gauges
		for name, v := range pg {
			if tg[name] != v {
				t.Fatalf("seed %d: gauge %s = %d with the tier, %d without", seed, name, tg[name], v)
			}
		}
		for name := range tg {
			if _, ok := pg[name]; !ok && !strings.HasPrefix(name, "globalfp_") {
				t.Fatalf("seed %d: gauge %s only exists with the tier", seed, name)
			}
		}
	}
}
