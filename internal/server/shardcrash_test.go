package server

import (
	"testing"
	"time"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// TestShardCrashRecoverEndToEnd exercises the per-shard failure domain
// through the serving layer: one shard crashes mid-run with the tier
// live, its requests fail-reply typed shard-down errors while the
// survivors keep serving, the rejoin replays its journal and re-audits
// inward pins, and the cluster ends whole — content verified through
// ReadContent and the cross-shard audit green.
func TestShardCrashRecoverEndToEnd(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{
		Shards:    4,
		GlobalFP:  true,
		NewEngine: globalFPFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	lbas := shardLBAs(srv)

	const n = 8
	content := func(round int) []chunk.ContentID {
		ids := make([]chunk.ContentID, n)
		for i := range ids {
			ids[i] = chunk.ContentID(20000 + round*n + i)
		}
		return ids
	}
	at := int64(0)
	writeRound := func(round int, shards ...int) {
		t.Helper()
		for _, sid := range shards {
			at += 1000
			res, err := srv.Do(&Request{
				Time: at, Op: trace.Write,
				LBA: lbas[sid] + uint64(round*n), Content: content(round),
			})
			if err != nil || res.Err != nil {
				t.Fatalf("round %d shard %d: %v / %v", round, sid, err, res.Err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		writeRound(round, 0, 1, 2, 3)
	}

	if err := srv.CrashShard(5); err == nil {
		t.Fatal("out-of-range CrashShard accepted")
	}
	if err := srv.CrashShard(3); err != nil {
		t.Fatal(err)
	}
	if err := srv.CrashShard(3); err == nil {
		t.Fatal("double CrashShard accepted")
	}
	if down := srv.DownShards(); len(down) != 1 || down[0] != 3 {
		t.Fatalf("DownShards = %v, want [3]", down)
	}

	// The dead shard fail-replies with the typed transient error; the
	// survivors keep serving.
	at += 1000
	res, err := srv.Do(&Request{Time: at, Op: trace.Write, LBA: lbas[3] + 4*n, Content: content(4)})
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := res.Err.(*fault.Error)
	if !ok || fe.Kind != fault.KindShardDown {
		t.Fatalf("down-shard write error = %v, want KindShardDown", res.Err)
	}
	if !fault.IsTransient(res.Err) {
		t.Fatal("shard-down error is not transient")
	}
	for round := 4; round < 6; round++ {
		writeRound(round, 0, 1, 2)
	}

	replayed, err := srv.RecoverShard(3)
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("rejoin replayed no journal records (the shard served four rounds before dying)")
	}
	// Idempotent: recovering a live shard is a no-op.
	if again, err := srv.RecoverShard(3); err != nil || again != 0 {
		t.Fatalf("second RecoverShard = %d, %v, want 0, nil", again, err)
	}
	if down := srv.DownShards(); len(down) != 0 {
		t.Fatalf("DownShards = %v after rejoin, want none", down)
	}

	// The rejoined shard serves again.
	writeRound(6, 0, 1, 2, 3)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatalf("post-rejoin audit: %v", err)
	}

	// Everything acked reads back: rounds 0-3 and 6 on shard 3 (its
	// in-outage round 4 write was refused), all rounds on the others.
	rounds := map[int][]int{0: {0, 1, 2, 3, 4, 5, 6}, 1: {0, 1, 2, 3, 4, 5, 6}, 2: {0, 1, 2, 3, 4, 5, 6}, 3: {0, 1, 2, 3, 6}}
	for sid, rs := range rounds {
		for _, round := range rs {
			ids := content(round)
			for i := 0; i < n; i++ {
				lba := lbas[sid] + uint64(round*n+i)
				got, ok := srv.ReadContent(lba)
				if !ok || got != uint64(ids[i]) {
					t.Fatalf("shard %d round %d lba %d: content %d,%v want %d", sid, round, lba, got, ok, ids[i])
				}
			}
		}
	}

	g := srv.Stats().Metrics.Gauges
	if g[`globalfp_epoch{shard="3"}`] != 1 {
		t.Fatalf("shard 3 epoch gauge = %d, want 1", g[`globalfp_epoch{shard="3"}`])
	}
	if g[`server_shard_down_refused{shard="3"}`] == 0 {
		t.Fatal("down-refusal counter never moved")
	}
	if g[`server_shard_down{shard="3"}`] != 0 {
		t.Fatal("shard 3 still gauged down after rejoin")
	}
}

// TestCheckConsistencyToleratesDownShard: a cluster closed with one
// shard intentionally down audits degraded, not broken — the dead
// shard's journal-backed remote references still count and nothing
// errors as a dead canonical.
func TestCheckConsistencyToleratesDownShard(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{
		Shards:    4,
		GlobalFP:  true,
		NewEngine: globalFPFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	lbas := shardLBAs(srv)

	const n = 8
	ids := make([]chunk.ContentID, n)
	for i := range ids {
		ids[i] = chunk.ContentID(30000 + i)
	}
	at := int64(0)
	for _, base := range lbas {
		at += 1000
		if _, err := srv.Do(&Request{Time: at, Op: trace.Write, LBA: base, Content: ids}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CrashShard(2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatalf("degraded audit: %v", err)
	}
	if down := srv.DownShards(); len(down) != 1 || down[0] != 2 {
		t.Fatalf("DownShards = %v, want [2]", down)
	}
}

// TestCrashShardPurgesSurvivorHints: when a shard dies every survivor
// drops the hints naming its canonicals (its rejoin may free them),
// while hints naming live owners stay installed.
func TestCrashShardPurgesSurvivorHints(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{
		Shards:    4,
		GlobalFP:  true,
		NewEngine: globalFPFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	lbas := shardLBAs(srv)

	var fper chunk.SyntheticFingerprinter
	fpOf := func(id chunk.ContentID) chunk.Fingerprint {
		ch := chunk.Chunk{Content: id}
		return fper.Fingerprint(&ch)
	}
	const onDead, onLive = chunk.ContentID(40000), chunk.ContentID(41000)
	hintOwner := func(shard int, id chunk.ContentID) int {
		owner := -1
		srv.WithEngine(shard, func(engine.Engine) {
			if c, ok := srv.agents[shard].Hint(fpOf(id)); ok {
				owner, _ = alloc.RemoteParts(c)
			}
		})
		return owner
	}

	at := int64(0)
	do := func(shard int, op trace.Op, content []chunk.ContentID) {
		t.Helper()
		at += 1000
		res, err := srv.Do(&Request{Time: at, Op: op, LBA: lbas[shard], Chunks: 1, Content: content})
		if err != nil || res.Err != nil {
			t.Fatalf("shard %d: %v / %v", shard, err, res.Err)
		}
	}
	do(0, trace.Write, []chunk.ContentID{onDead})
	do(1, trace.Write, []chunk.ContentID{onLive})
	// Grants travel asynchronously (tier workers, then the owner's and
	// the beneficiary's ticks); tick every shard until they land.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if hintOwner(1, onDead) == 0 && hintOwner(2, onDead) == 0 && hintOwner(3, onDead) == 0 &&
			hintOwner(2, onLive) == 1 && hintOwner(3, onLive) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hints never reached the peers")
		}
		for sid := range lbas {
			do(sid, trace.Read, nil)
		}
	}

	if err := srv.CrashShard(0); err != nil {
		t.Fatal(err)
	}
	for _, sid := range []int{1, 2, 3} {
		if owner := hintOwner(sid, onDead); owner != -1 {
			t.Fatalf("shard %d still holds a hint naming crashed shard %d", sid, owner)
		}
	}
	for _, sid := range []int{2, 3} {
		if owner := hintOwner(sid, onLive); owner != 1 {
			t.Fatalf("shard %d lost its hint naming live shard 1 (owner %d)", sid, owner)
		}
	}
	if _, err := srv.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
