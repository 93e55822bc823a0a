package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
)

// runner runs the passes of one run. Every pass of a run replays the
// same generated trace, so the oracle's expected map is derived once,
// after the first pass, and reused.
type runner struct {
	w *workloadDef
	o options
	x *expected
}

func (rn *runner) expected(derive func() *expected) *expected {
	if rn.x == nil {
		rn.x = derive()
	}
	return rn.x
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	scale   float64 // multiplies every workload's trace scale; tests shrink it
	out     string  // directory for the traced run's spans
}

// pass is one set-up plus one timed window over a freshly generated
// trace and a freshly built system.
type pass struct {
	setup, window time.Duration
	timed         int        // requests in the timed window
	wall          [2][]int64 // wall latency per request in the window, ns: reads, writes
	attempted     int        // requests submitted, warm-up included
	failed        int        // requests that failed, plus oracle mismatches
	simWriteMean  float64    // µs
	simReadMean   float64    // µs
	simP99        float64    // µs, sojourn (service on a replay)
	removedPct    float64    // write requests removed, %
	storedPerUser float64    // physical blocks per live logical block
	usedBlocks    uint64     // physical blocks in use after the run
	auditErr      error      // consistency audit failure
	layers        map[string]float64
	cpuProfile    []byte
	peakRSS       float64 // MiB, process peak when the window ended
	tracer        *tracer
}

// do issues one request to an engine, reporting whether it failed.
func do(e engine.Engine, r *trace.Request) bool {
	var err error
	if r.Op == trace.Write {
		_, err = e.Write(r)
	} else {
		_, err = e.Read(r)
	}
	return err != nil
}

// profiled runs fn under a CPU profile when traced, with the runtime's
// allocation counters sampled around it.
func profiled(p *pass, traced bool, fn func()) {
	var before, after runtime.MemStats
	var buf bytes.Buffer
	if traced {
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			p.auditErr = fmt.Errorf("cpu profile: %w", err)
			traced = false
		}
	}
	fn()
	if !traced {
		return
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	p.cpuProfile = buf.Bytes()
	n := float64(max(p.timed, 1))
	p.layers["runtime.allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / n
	p.layers["runtime.alloc_bytes_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	p.layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
}

// replayPass generates a replay trace, builds one POD engine, replays
// the warm-up prefix, then times the rest in trace order from one
// caller: a closed loop in wall time, with virtual arrivals from the
// trace.
func (rn *runner) replayPass(traced bool) *pass {
	w, o := rn.w, rn.o
	p := &pass{layers: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer()
		p.tracer = tr
	}
	mainSpans := tr.buf()
	begin := time.Now()
	root := mainSpans.begin(spanPass, -1, -1)
	sp := mainSpans.begin(spanGen, -1, root)
	in := w.replay(o.seed, w.scale*o.scale)
	mainSpans.end(sp)
	sp = mainSpans.begin(spanNew, -1, root)
	eng := core.NewPOD(in.cfg)
	mainSpans.end(sp)
	sp = mainSpans.begin(spanWarmup, -1, root)
	reqs := in.tr.Requests
	for i := 0; i < in.warmup; i++ {
		if do(eng, &reqs[i]) {
			p.failed++
		}
	}
	// the measurement boundary podsim's replay uses
	eng.Stats().Reset()
	eng.Metrics().Reset()
	mainSpans.end(sp)
	p.setup = time.Since(begin)

	p.attempted = len(reqs)
	p.timed = len(reqs) - in.warmup
	log := &callLog{
		writes: make([]int64, 0, p.timed),
		reads:  make([]int64, 0, p.timed),
		spans:  mainSpans,
	}
	te := &timedEngine{SelectDedupe: eng, log: log}
	profiled(p, traced, func() {
		win := mainSpans.begin(spanWindow, -1, root)
		if traced {
			log.parentAll = win
			log.index = make([]int32, p.timed)
			for k := range log.index {
				log.index[k] = int32(in.warmup + k)
			}
		}
		t0 := time.Now()
		for i := in.warmup; i < len(reqs); i++ {
			if do(te, &reqs[i]) {
				p.failed++
			}
		}
		p.window = time.Since(t0)
		mainSpans.end(win)
	})
	mainSpans.end(root)
	p.peakRSS = peakRSSMB()
	p.wall = [2][]int64{log.reads, log.writes}
	if n := len(reqs); n > 0 {
		eng.Flush(reqs[n-1].Time)
	}

	// off the clock: simulated outputs, layer counts, audits
	st := eng.Stats()
	all := stats.NewHistogram()
	all.Merge(st.ReadRT)
	all.Merge(st.WriteRT)
	p.simWriteMean, p.simReadMean, p.simP99 = st.WriteRT.Mean(), st.ReadRT.Mean(), all.Percentile(99)
	p.removedPct = st.WriteRemovalPct()
	snap := eng.Metrics().Snapshot()
	if traced {
		registryLayers(p.layers, snap, st, nil)
	}
	x := rn.expected(func() *expected { return expect(in.tr, nil) })
	p.usedBlocks = eng.UsedBlocks()
	p.storedPerUser = ratio(float64(p.usedBlocks), float64(x.liveSlots()))
	p.failed += x.check(eng.ReadContent)
	if err := eng.Base().CheckConsistency(); err != nil {
		p.auditErr = err
	}
	// durability: every acknowledged write survives a crash that
	// loses DRAM and rebuilds the map table from its NVRAM journal
	if _, err := eng.CrashAndRecover(); err != nil {
		p.auditErr = fmt.Errorf("crash recovery: %w", err)
	} else {
		p.failed += x.check(eng.ReadContent)
	}
	return p
}

// servePass generates the mixed trace, builds the sharded server, and
// times submission plus the graceful drain. Virtual arrivals are an
// open loop at serveRateRPS; in wall time two client goroutines, each
// owning half the shards, submit batches that block when a shard
// queue is full.
func (rn *runner) servePass(traced bool) *pass {
	w, o := rn.w, rn.o
	p := &pass{layers: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer()
		p.tracer = tr
	}
	mainSpans := tr.buf()
	begin := time.Now()
	root := mainSpans.begin(spanPass, -1, -1)
	scale := w.scale * o.scale
	sp := mainSpans.begin(spanGen, -1, root)
	mt, prof := mixedTrace(o.seed, scale)
	mainSpans.end(sp)
	n := len(mt.Requests)
	p.attempted, p.timed = n, n

	sp = mainSpans.begin(spanNew, -1, root)
	logs := make([]*callLog, serveShards)
	for i := range logs {
		logs[i] = &callLog{spans: tr.buf()}
	}
	srv, err := server.New(server.Config{
		Shards:   serveShards,
		Timing:   server.Queued,
		GlobalFP: w.globalFP,
		NewEngine: func(i int) engine.Engine {
			e := core.NewPOD(experiments.BuildConfig(prof, scale))
			if w.globalFP {
				bgdedup.Attach(e, bgdedup.Params{})
			}
			return &timedEngine{SelectDedupe: e, log: logs[i]}
		},
	})
	if err != nil {
		p.auditErr = err
		return p
	}
	// Each client owns the shards congruent to it, so every shard sees
	// its arrivals in schedule order and the virtual queueing is
	// deterministic. Batches are cut in set-up; the server keeps them.
	perClient := make([][]server.Request, serveClients)
	clientIdx := make([][]int32, serveClients)
	for i := range mt.Requests {
		r := api.FromTrace(mt.Requests[i])
		r.Time = int64(float64(i) * 1e6 / serveRateRPS)
		s := srv.Shard(r.LBA)
		c := s % serveClients
		perClient[c] = append(perClient[c], r)
		clientIdx[c] = append(clientIdx[c], int32(i))
		logs[s].index = append(logs[s].index, int32(i))
	}
	submitted := make([]int64, n)
	var parent []int64
	if traced {
		parent = make([]int64, n)
	}
	for _, l := range logs {
		l.writes = make([]int64, 0, len(l.index))
		l.reads = make([]int64, 0, len(l.index))
		l.submitted, l.epoch, l.parent = submitted, begin, parent
	}
	clientSpans := make([]*spanBuf, serveClients)
	for c := range clientSpans {
		clientSpans[c] = tr.buf()
	}
	mainSpans.end(sp)
	p.setup = time.Since(begin)

	submitErrs := make([]error, serveClients)
	profiled(p, traced, func() {
		win := mainSpans.begin(spanWindow, -1, root)
		t0 := time.Now()
		done := make(chan struct{})
		for c := 0; c < serveClients; c++ {
			go func(c int) {
				defer func() { done <- struct{}{} }()
				reqs, idx, spans := perClient[c], clientIdx[c], clientSpans[c]
				for lo := 0; lo < len(reqs); lo += submitBatch {
					hi := min(lo+submitBatch, len(reqs))
					sid := spans.begin(spanSubmit, -1, win)
					at := int64(time.Since(begin))
					for _, i := range idx[lo:hi] {
						submitted[i] = at
						if parent != nil {
							parent[i] = sid
						}
					}
					if err := srv.SubmitBatch(reqs[lo:hi:hi]); err != nil {
						submitErrs[c] = err
						return
					}
					spans.end(sid)
				}
			}(c)
		}
		for c := 0; c < serveClients; c++ {
			<-done
		}
		sp := mainSpans.begin(spanClose, -1, win)
		if err := srv.Close(); err != nil {
			p.auditErr = err
		}
		mainSpans.end(sp)
		p.window = time.Since(t0)
		mainSpans.end(win)
	})
	mainSpans.end(root)
	p.peakRSS = peakRSSMB()
	for _, err := range submitErrs {
		if err != nil {
			p.auditErr = err
		}
	}
	for _, l := range logs {
		p.wall[0] = append(p.wall[0], l.reads...)
		p.wall[1] = append(p.wall[1], l.writes...)
	}

	// off the clock
	snap := srv.Stats()
	st := snap.Engine
	p.simWriteMean, p.simReadMean, p.simP99 = st.WriteRT.Mean(), st.ReadRT.Mean(), snap.Latency.Percentile(99)
	p.removedPct = st.WriteRemovalPct()
	p.failed += int(snap.ShedCount + st.WriteErrors + st.ReadErrors)
	if traced {
		registryLayers(p.layers, snap.Metrics, st, snap.PerShard)
	}
	if err := srv.CheckConsistency(); err != nil {
		p.auditErr = err
	}
	x := rn.expected(func() *expected { return expect(mt, srv.Shard) })
	p.usedBlocks = snap.UsedBlocks
	p.storedPerUser = ratio(float64(p.usedBlocks), float64(x.liveSlots()))
	p.failed += x.check(srv.ReadContent)
	return p
}

// registryLayers reads the per-layer counts from a metrics snapshot
// and the engine statistics. Histograms and counters cover the timed
// window (replay resets them at the warm-up boundary); gauges are the
// substrates' state at the end.
func registryLayers(m map[string]float64, s *metrics.Snapshot, st *engine.Stats, shards []server.ShardSnapshot) {
	g := func(name string) float64 { return float64(s.Gauges[name]) }
	h := func(name string) *metrics.HistSnapshot {
		if x := s.Histograms[name]; x != nil {
			return x
		}
		return &metrics.HistSnapshot{}
	}
	m["core.cat1"] = float64(st.Cat1)
	m["core.cat2"] = float64(st.Cat2)
	m["core.cat3"] = float64(st.Cat3)
	m["chunk.sim_fingerprint_busy_s"] = float64(h("phase_fingerprint_us").Sum) / 1e6
	m["icache.index_hit_ratio"] = ratio(g("index_hot_hits"), g("index_hot_hits")+g("index_hot_misses"))
	m["icache.read_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	m["icache.ghost_hits"] = g("icache_ghost_index_hits_total") + g("icache_ghost_read_hits_total")
	m["icache.repartitions"] = g("icache_repartitions")
	m["icache.swapins"] = g("icache_swapins_index") + g("icache_swapins_read")
	m["maptable.updates"] = float64(h("phase_map_update_us").N)
	m["maptable.shared_entries_peak"] = g("maptable_shared_entries_peak")
	m["maptable.nvram_peak_bytes"] = g("maptable_nvram_bytes_peak")
	m["alloc.free_extents"] = g("alloc_free_extents")
	m["alloc.largest_free"] = g("alloc_largest_free")
	m["raid.disk_ios"] = g("raid_disk_ios")
	m["raid.rmw_ratio"] = ratio(g("raid_rmw_stripes"), g("raid_rmw_stripes")+g("raid_full_stripes"))
	m["disk.sim_read_busy_s"] = float64(h("phase_disk_read_us").Sum) / 1e6
	m["disk.sim_write_busy_s"] = float64(h("phase_disk_write_us").Sum) / 1e6
	qw := h("phase_queue_wait_us")
	m["server.sim_queue_wait_p50_us"] = qw.Percentile(50)
	m["server.sim_queue_wait_p99_us"] = qw.Percentile(99)
	var completed, batches int64
	for _, sh := range shards {
		completed += sh.Completed
		batches += sh.Batches
	}
	m["server.mean_batch"] = ratio(float64(completed), float64(batches))
	m["globalfp.ads_drop_ratio"] = ratio(g("globalfp_ads_dropped"), g("globalfp_ads_queued")+g("globalfp_ads_dropped"))
	m["globalfp.hints_installed"] = g("globalfp_hints_installed")
	m["globalfp.remaps_applied"] = g("globalfp_remaps_applied")
	m["globalfp.useful_hint_ratio"] = ratio(float64(st.RemoteDeduped)+g("globalfp_remaps_applied"), g("globalfp_hints_installed"))
	m["bgdedup.scanned_blocks"] = g("bgdedup_scanned_blocks")
	m["bgdedup.reclaim_ratio"] = ratio(g("bgdedup_reclaimed_blocks"), g("bgdedup_duplicate_blocks"))
}

// result is what one run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	notes     []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload: passes repeat while another fits in
// o.seconds, and each end-to-end metric is the median over passes. A
// traced run alternates untraced reference passes with traced ones,
// at least one of each.
func run(w *workloadDef, o options) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var passes, untraced, traced []*pass
	rn := &runner{w: w, o: o}
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	// a pass starts only if one more of the length of the last fits in
	// the budget, so a run ends close to o.seconds and never far past it
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= budget || (o.traced && len(traced) == 0) {
		passStart := time.Now()
		// a traced run alternates untraced reference passes with traced ones
		tracedPass := o.traced && len(passes)%2 == 1
		var p *pass
		if w.replay != nil {
			p = rn.replayPass(tracedPass)
		} else {
			p = rn.servePass(tracedPass)
		}
		if p.auditErr != nil {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("pass %d: audit: %v", len(passes), p.auditErr))
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		passes = append(passes, p)
		if tracedPass {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		// start every pass from the same heap, so one pass's garbage
		// does not land on the next one's clock or peak RSS
		runtime.GC()
		debug.FreeOSMemory()
		last = time.Since(passStart)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !o.traced {
		endToEndMetrics(res, passes)
		return res, nil
	}
	return res, perLayerMetrics(res, w, o, untraced, traced)
}

func endToEndMetrics(res *result, passes []*pass) {
	per := func(f func(p *pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	// wall percentiles pool every pass's samples, so the tails rest on
	// as many samples as the run measured
	var pooled [2][]int64
	for _, p := range passes {
		for op := range pooled {
			pooled[op] = append(pooled[op], p.wall[op]...)
		}
	}
	for op := range pooled {
		slices.Sort(pooled[op])
	}
	wallPct := func(op int, q float64) float64 { return percentile(pooled[op], q) / 1e3 }
	v := map[string]float64{
		"setup_s":               per(func(p *pass) float64 { return p.setup.Seconds() }),
		"wall_req_per_s":        per(func(p *pass) float64 { return ratio(float64(p.timed), p.window.Seconds()) }),
		"wall_write_p50_us":     wallPct(1, 50),
		"wall_write_p99_us":     wallPct(1, 99),
		"wall_read_p50_us":      wallPct(0, 50),
		"wall_read_p99_us":      wallPct(0, 99),
		"sim_write_mean_us":     per(func(p *pass) float64 { return p.simWriteMean }),
		"sim_read_mean_us":      per(func(p *pass) float64 { return p.simReadMean }),
		"sim_p99_us":            per(func(p *pass) float64 { return p.simP99 }),
		"writes_removed_pct":    per(func(p *pass) float64 { return p.removedPct }),
		"stored_per_user_block": per(func(p *pass) float64 { return p.storedPerUser }),
		"peak_rss_mb":           passes[0].peakRSS,
		"ok_frac":               1 - ratio(float64(res.Failed), float64(res.Attempted)),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{v[d.Name], d.Unit}
	}
	res.notes = append(res.notes, fmt.Sprintf("passes=%d window_requests=%d used_blocks=%d wall_samples reads=%d writes=%d gomaxprocs=%d numcpu=%d",
		len(passes), passes[0].timed, passes[0].usedBlocks, len(pooled[0]), len(pooled[1]), runtime.GOMAXPROCS(0), runtime.NumCPU()))
	windows := make([]string, len(passes))
	for i, p := range passes {
		windows[i] = fmt.Sprintf("%.3f", p.window.Seconds())
	}
	res.notes = append(res.notes, "window seconds per pass: "+strings.Join(windows, " "))
}

func perLayerMetrics(res *result, w *workloadDef, o options, untraced, traced []*pass) error {
	last := traced[len(traced)-1]
	v := last.layers
	t := last.tracer.totals()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	v["workload.gen_s"] = sec(t[spanGen].total)
	v["engine.write_calls"] = float64(t[spanWrite].n)
	v["engine.read_calls"] = float64(t[spanRead].n)
	v["engine.write_busy_s"] = sec(t[spanWrite].total)
	v["engine.read_busy_s"] = sec(t[spanRead].total)
	v["bench.window_self_s"] = sec(t[spanWindow].own)
	v["server.submit_s"] = sec(t[spanSubmit].total)
	v["server.submit_self_s"] = sec(t[spanSubmit].own)
	v["server.close_s"] = sec(t[spanClose].total)

	perReq := func(ps []*pass) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.window.Seconds() / float64(max(p.timed, 1))
		}
		return median(xs)
	}
	v["trace.overhead_pct"] = 100 * (perReq(traced)/perReq(untraced) - 1)

	cpu := map[string]int64{}
	for _, p := range traced {
		if err := cpuByLayer(p.cpuProfile, cpu); err != nil {
			return err
		}
	}
	var total int64
	for l, ns := range cpu {
		if !slices.Contains(cpuLayers, l) {
			return fmt.Errorf("cpu profile: unexpected layer %q", l)
		}
		total += ns
	}
	for _, l := range cpuLayers {
		v["cpu_share."+l] = 100 * ratio(float64(cpu[l]), float64(total))
	}
	v["cpu.sampled_s"] = sec(total)

	for _, d := range perLayer {
		x, ok := v[d.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s not computed", d.Name)
		}
		res.Metrics[d.Name] = metricValue{x, d.Unit}
	}
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.csv", w.name, o.seed))
		if err := last.tracer.write(path); err != nil {
			return err
		}
		res.notes = append(res.notes, "spans: "+path)
	}
	return nil
}
