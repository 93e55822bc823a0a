package core

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// SelectDedupe is POD's write-path component: request-based selective
// inline deduplication. With cfg.Adaptive set it becomes the complete
// POD system (Select-Dedupe + iCache); NewPOD arranges exactly that.
type SelectDedupe struct {
	base *engine.Base
	name string
}

// NewSelectDedupe returns the Select-Dedupe engine with the fixed
// 50/50 cache partition used in §IV-B.
func NewSelectDedupe(cfg engine.Config) *SelectDedupe {
	cfg.Adaptive = false
	return &SelectDedupe{base: engine.NewBase(cfg), name: "Select-Dedupe"}
}

// NewPOD returns the full POD engine: Select-Dedupe plus the adaptive
// iCache partitioning of §III-C.
func NewPOD(cfg engine.Config) *SelectDedupe {
	cfg.Adaptive = true
	return &SelectDedupe{base: engine.NewBase(cfg), name: "POD"}
}

// Name implements engine.Engine.
func (s *SelectDedupe) Name() string { return s.name }

// Release implements replay.Releaser: pooled substrate resources go
// back to their process-wide pools at end of life.
func (s *SelectDedupe) Release() { s.base.Release() }

// Stats implements engine.Engine.
func (s *SelectDedupe) Stats() *engine.Stats { return s.base.St }

// Metrics implements engine.Engine.
func (s *SelectDedupe) Metrics() *metrics.Registry { return s.base.Metrics() }

// UsedBlocks implements engine.Engine.
func (s *SelectDedupe) UsedBlocks() uint64 { return s.base.UsedBlocks() }

// ReadContent implements engine.Engine.
func (s *SelectDedupe) ReadContent(lba uint64) (uint64, bool) { return s.base.ReadContent(lba) }

// Base exposes the substrate for inspection by tests and experiments.
func (s *SelectDedupe) Base() *engine.Base { return s.base }

// CrashAndRecover models a power failure and restart: the DRAM caches
// are lost and the Map table is rebuilt from its NVRAM journal — the
// §IV-D2 durability story. It returns the number of journal records
// replayed.
func (s *SelectDedupe) CrashAndRecover() (int, error) { return s.base.Recover() }

// Flush drains any attached background task (the out-of-line dedup
// scanner) to convergence — replay and the serving layer call it at end
// of run so capacity numbers reflect a completed pass. Without an
// attached task it is a no-op.
func (s *SelectDedupe) Flush(now sim.Time) { s.base.FlushBackground(now) }

// Write runs the Select-Dedupe write path of Figure 6: split,
// fingerprint, consult the hot index (memory only — a miss just means
// a lost opportunity; with the global tier on, a miss falls through to
// its hint table), classify per Figure 5, absorb the deduplicated
// chunks into the Map table, and write the rest contiguously.
func (s *SelectDedupe) Write(req *trace.Request) (sim.Duration, error) {
	t := req.Time
	s.base.StartRequest()
	s.base.Tick(t)
	st := s.base.St
	st.Writes++

	chs, fpCost := s.base.SplitAndFingerprint(req)
	ready := t.Add(fpCost)

	dup, dedupe, target := s.base.WriteScratch(len(chs))
	hints := s.base.Hints
	for i := range chs {
		if e, ok := s.base.IC.IndexLookupS(uint32(req.Stream), chs[i].FP); ok {
			dup[i] = true
			target[i] = e.PBA
		} else if hints != nil {
			target[i], dup[i] = hints(chs[i].FP)
		}
	}

	cat := ClassifyInto(dedupe, dup, target, s.base.Cfg.Threshold)
	switch cat {
	case Cat1:
		st.Cat1++
	case Cat2:
		st.Cat2++
	case Cat3:
		st.Cat3++
	}

	sink := s.base.Ads
	positions := s.base.PositionsScratch(len(chs))
	for i := 0; i < len(chs); i++ {
		if dedupe[i] && s.base.TryDedupe(req.LBA+uint64(i), target[i], chs[i].Content) {
			// duplicate evidence for the tier: an inline hit against
			// a local copy (remote hits are already global knowledge)
			if sink != nil && !alloc.IsRemote(target[i]) {
				sink.Advertise(chs[i].FP, target[i], false)
			}
			continue
		} else {
			positions = append(positions, i)
		}
	}

	done := ready
	if len(positions) > 0 {
		var pbas []alloc.PBA
		var err error
		done, pbas, err = s.base.WriteFresh(ready, req, positions, chs)
		if err != nil {
			return done.Sub(t), err
		}
		for k, pos := range positions {
			s.base.InsertIndexS(req.Stream, chs[pos].FP, pbas[k])
			// canonical candidate for the tier: fire-and-forget, so
			// the write path never waits on tier load
			if sink != nil {
				sink.Advertise(chs[pos].FP, pbas[k], true)
			}
		}
	} else {
		done = s.base.AbsorbWrite(done)
	}
	s.base.NoteStreamWrite(req.Stream, len(positions) == 0)

	s.base.VerifyWrite(req, chs)
	rt := done.Sub(t)
	st.WriteRT.Add(int64(rt))
	return rt, nil
}

// Read services a read through the Map table; POD's read performance
// benefits come from the write path (no fragmentation of category-2
// data, shorter disk queues) and, in adaptive mode, from read-cache
// growth during read bursts.
func (s *SelectDedupe) Read(req *trace.Request) (sim.Duration, error) {
	s.base.StartRequest()
	s.base.Tick(req.Time)
	rt, err := s.base.ReadMapped(req, false)
	if err != nil {
		return rt, err
	}
	s.base.St.Reads++
	s.base.St.ReadRT.Add(int64(rt))
	return rt, nil
}
