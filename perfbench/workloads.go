package main

import (
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// workloadDef is one benchmark workload. Replay workloads feed one
// engine in trace order from a single caller; serve workloads submit
// the trace through the sharded server.
type workloadDef struct {
	name, why string
	// scale is the trace scale at -scale 1.
	scale float64
	// replay builds a replay workload's trace and engine configuration;
	// nil for serve workloads.
	replay func(seed int64, scale float64) replayInput
	// globalFP turns on the global fingerprint tier (serve only).
	globalFP bool
}

// replayInput is a generated replay trace, its warm-up prefix, and the
// platform it runs on.
type replayInput struct {
	tr     *trace.Trace
	warmup int
	cfg    engine.Config
}

// Serving shape shared by both serve workloads: 8 POD shards, two
// client goroutines that each own four, batched submission, and an
// open-loop virtual arrival rate well below the 8-shard simulated
// saturation point, so sojourn measures queueing, not a growing backlog.
const (
	serveShards  = 8
	serveClients = 2
	submitBatch  = 256
	serveRateRPS = 250
)

var workloads = []*workloadDef{
	{
		name:   "replay-mail",
		why:    "largest, most redundant trace (4 GiB footprint vs 16 MiB iCache) replayed closed-loop: the engine core does the work",
		scale:  1,
		replay: mailReplay,
	},
	{
		name:  "serve-mixed",
		why:   "three-tenant mixed trace on 8 POD shards, 2 clients, tier off: adds server routing, queues and batch drains",
		scale: 0.15,
	},
	{
		name:     "serve-mixed-gfp",
		why:      "serve-mixed with the global fingerprint tier (and bgdedup) on: globalfp does most of the work",
		scale:    0.15,
		globalFP: true,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seeded derives a generator seed from the benchmark seed. Seed 0 keeps
// the generator's own seed, so the default run reproduces podsim and
// podload exactly.
func seeded(base, seed int64) int64 {
	if seed == 0 {
		return base
	}
	return base ^ int64(mix64(uint64(seed)))
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// podsimConfig is the platform `podsim` builds for a built-in trace:
// four-disk RAID5 with 64 KiB stripe units, half the logical footprint
// per disk, and the paper's thresholds.
func podsimConfig(diskBlocks uint64, memBytes int64) engine.Config {
	ds := make([]*disk.Disk, 4)
	for i := range ds {
		ds[i] = disk.New(disk.DefaultParams(diskBlocks))
	}
	if memBytes < 1<<19 {
		memBytes = 1 << 19
	}
	return engine.Config{
		Array:           raid.New(raid.RAID5, ds, 16),
		MemoryBytes:     memBytes,
		IndexFrac:       0.5,
		Threshold:       3,
		IDedupThreshold: 8,
		NVRAMBytes:      int(diskBlocks * 4 * 24),
	}
}

func mailReplay(seed int64, scale float64) replayInput {
	p := workload.Mail()
	p.Seed = seeded(p.Seed, seed)
	tr, warm := workload.Generate(p, scale)
	return replayInput{tr: tr, warmup: warm,
		cfg: podsimConfig(p.FootprintChunks/2, int64(float64(p.MemoryBytes)*scale))}
}

// tenantIDBits matches the offset workload.MixedTrace gives each
// tenant's content IDs so that tenants never share content.
const tenantIDBits = 40

// mixedTrace composes the three-tenant mixed trace from seeded
// per-tenant generators, as workload.MixedTrace does from fixed ones:
// each tenant gets its own LBA region and content-ID space and the
// streams merge by arrival time. It also returns the platform profile
// podload sizes each shard by.
func mixedTrace(seed int64, scale float64) (*trace.Trace, workload.Profile) {
	profiles := workload.Profiles()
	tenants := make([]*trace.Trace, len(profiles))
	mixed := workload.Profile{Name: "mixed"}
	for i, p := range profiles {
		p.Seed = seeded(p.Seed, seed)
		tr, _ := workload.Generate(p, scale)
		for k := range tr.Requests {
			r := &tr.Requests[k]
			r.LBA += mixed.FootprintChunks
			for j := range r.Content {
				r.Content[j] += chunk.ContentID(uint64(i) << tenantIDBits)
			}
		}
		tenants[i] = tr
		mixed.FootprintChunks += p.FootprintChunks
		mixed.MemoryBytes += p.MemoryBytes
	}
	return trace.Merge("mixed", tenants...), mixed
}
