package core

import (
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/obs"
)

// This file implements cpu.FastForwarder for the SST core: proving that
// a cycle was a pure stall, finding the earliest future cycle at which
// anything can change, and bulk-crediting the skipped cycles so every
// counter, histogram and sink emission is bit-identical to naive
// stepping.
//
// Purity is established by snapshotting — at Step entry — every piece
// of state a stall cycle is forbidden to touch, and comparing at Step
// exit. The set errs on the side of inclusion: it is the whole
// statistics block except a short declared list of time-indexed fields
// (see adoptTimeIndexed), so any replay, commit, rollback, checkpoint
// take, scout entry or transaction event — and any counter added later —
// marks the cycle unskippable, as do a delivery, a mode change, a
// predictor change beyond a lookup (a jalr retry may pop the RAS, and
// training moves the history register) or a fault-injector query (clamp
// probes record per retry inside an active window). A pure lookup is
// replicable: a deferred branch retried against a full DQ consults the
// direction predictor every cycle, and a jalr retry waiting out a BTB
// miss looks the target up again, while the tables and history they read
// hold still. noteStall records those per-cycle lookup counts
// (lookupDelta) and SkipTo credits them. What remains — the genuinely
// replicable stalls — mutates only time-indexed accounting and predictor
// lookup counts, which SkipTo replays in closed form.
//
// The snapshot copies the whole statistics block, so Step takes it only
// after snapAfterQuiet consecutive quiet cycles — longer than the two
// quiet cycles of a taken-branch redirect. A busy loop of progress and
// redirects then never pays for it, and a real stall opens its window
// two cycles later than a check after one quiet cycle would. That delay
// is unobservable: a skipped cycle is bit-identical to a stepped one.

var _ cpu.FastForwarder = (*Core)(nil)

// stepSnap is the Step-entry snapshot backing the purity check: the
// whole statistics block plus the non-statistics state a stall cycle
// must not touch.
type stepSnap struct {
	stats   Stats
	seq     uint64
	mode    Mode
	pendLen int
	pred    bpred.Stats
	ghr     uint64
	fltMut  uint64
}

// snapInto fills s with the Step-entry state. It writes through a
// pointer into the one buffer the core reuses, which Step fills only on
// detection cycles.
func (c *Core) snapInto(s *stepSnap) {
	s.stats = c.stats
	s.seq = c.seq
	s.mode = c.mode
	s.pendLen = len(c.pend)
	s.pred = c.m.Pred.Stats
	s.ghr = c.m.Pred.History()
	s.fltMut = c.flt.Mutations()
}

// adoptTimeIndexed copies from's time-indexed fields into s: the ones a
// pure stall cycle legitimately advances and SkipTo replays in closed
// form (the clock, the CPI stack, MLP samples, mode cycles, the
// per-cycle stall counters; the occupancy histograms are pointers and
// compare equal). This is the whole declared list. Every other field —
// any counter added to Stats later included — must hold still across a
// skippable cycle, so noteStall adopts these into the Step-entry
// snapshot and then compares the blocks whole.
func (s *Stats) adoptTimeIndexed(from *Stats) {
	s.Cycles = from.Cycles
	s.CPI = from.CPI
	s.MLPSamples, s.MLPSum = from.MLPSamples, from.MLPSum
	s.ModeCycles = from.ModeCycles
	s.DQFullStallCycles, s.SSBFullStallCycles, s.AtomicStallCycles =
		from.DQFullStallCycles, from.SSBFullStallCycles, from.AtomicStallCycles
	s.SecureDelayStallCycles, s.SecureNoFwdStallCycles, s.SecureSSBStallCycles =
		from.SecureDelayStallCycles, from.SecureNoFwdStallCycles, from.SecureSSBStallCycles
}

// noteStall runs at the end of Step: if the cycle was a replicable pure
// stall it records the per-cycle credit deltas and the skip horizon,
// otherwise it leaves fast-forwarding disabled. It consumes the
// snapshot (the time-indexed fields are overwritten).
func (c *Core) noteStall(s *stepSnap, executed, replayed int, kind CycleKind, bucket cpu.Bucket, outstanding int, now uint64) {
	if executed != 0 || replayed != 0 || c.done || c.err != nil ||
		c.seq != s.seq || c.mode != s.mode || len(c.pend) != s.pendLen ||
		c.m.Pred.History() != s.ghr || c.flt.Mutations() != s.fltMut {
		return
	}
	lookups, ok := lookupDelta(c.m.Pred.Stats, s.pred)
	if !ok {
		return
	}
	// A horizon of now+1 (or none) opens no skip window; settle that
	// before the whole-block comparison.
	next := c.nextTimer(now)
	if next <= now+1 {
		return
	}
	st, was := &c.stats, &s.stats
	dq, ssb, at := st.DQFullStallCycles-was.DQFullStallCycles,
		st.SSBFullStallCycles-was.SSBFullStallCycles, st.AtomicStallCycles-was.AtomicStallCycles
	sd, snf, sfl := st.SecureDelayStallCycles-was.SecureDelayStallCycles,
		st.SecureNoFwdStallCycles-was.SecureNoFwdStallCycles, st.SecureSSBStallCycles-was.SecureSSBStallCycles
	was.adoptTimeIndexed(st)
	if *st != *was {
		return
	}
	c.ffKind = kind
	c.ffBucket = bucket
	c.ffDQStall, c.ffSSBStall, c.ffAtStall = dq, ssb, at
	c.ffSecDelay, c.ffSecNoFwd, c.ffSecSSB = sd, snf, sfl
	c.ffLookups = lookups
	c.ffMLP = outstanding
	c.ffNext = next
}

// lookupDelta returns the predictor lookups one stall cycle made (cur
// minus was, in the four lookup counters) and whether they were all it
// did: any other counter moving, RASPops included, makes the cycle
// impure.
func lookupDelta(cur, was bpred.Stats) (d bpred.Stats, ok bool) {
	d.DirLookups, d.TageProviderHits = cur.DirLookups-was.DirLookups, cur.TageProviderHits-was.TageProviderHits
	d.BTBLookups, d.BTBMisses = cur.BTBLookups-was.BTBLookups, cur.BTBMisses-was.BTBMisses
	was.DirLookups, was.TageProviderHits = cur.DirLookups, cur.TageProviderHits
	was.BTBLookups, was.BTBMisses = cur.BTBLookups, cur.BTBMisses
	return d, cur == was
}

// nextTimer returns the earliest cycle strictly after now at which the
// core's state can change (0 = nothing pending): a deferred result
// delivering, a scoreboarded register becoming ready, the frontend
// finishing a bubble or line fill, a data-side MSHR fill moving the
// outstanding-miss count, or the fault plan entering a new regime.
func (c *Core) nextTimer(now uint64) uint64 {
	var next uint64
	bound := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	bound(c.fe.NextDelivery(now))
	for i := range c.pend {
		if c.pend[i].blocked {
			// No arrival time exists yet: the release is event-driven,
			// and the enabling resolution always breaks stall purity.
			continue
		}
		bound(c.pend[i].ready)
	}
	// sbHorizon is a monotonic upper bound on every readyAt value ever
	// written; once the clock passes it the whole scoreboard is quiescent
	// and the scan is skippable (rollback only restores values an earlier
	// write already folded into the horizon).
	if c.sbHorizon > now {
		for _, t := range c.readyAt {
			bound(t)
		}
	}
	bound(c.m.Hier.NextDataFill(c.m.CoreID, now))
	if c.flt != nil {
		bound(c.flt.NextChange(now))
	}
	return next
}

// NextEvent implements cpu.FastForwarder. It reports the pure-stall
// horizon recorded by the last Step, or the end of the scout period jump
// the last Step armed (period.go); once the clock reaches it, or any
// Step runs, the answer decays to 0 and the core must be stepped
// naively.
func (c *Core) NextEvent() uint64 {
	if c.cohSeq != 0 || (c.tx.active && c.tx.abort != 0) {
		// A remote store scheduled a coherence rollback or transaction
		// abort after this cycle's purity was established (the listener
		// fires during another core's Step, possibly after ours recorded
		// a stall horizon). The repair must run at the very next cycle,
		// exactly where naive stepping would apply it.
		return 0
	}
	if c.ffNext > c.cycle {
		return c.ffNext
	}
	return c.pj.end
}

// SkipTo implements cpu.FastForwarder: it credits cycles
// [Cycle(), target) exactly as repeating the recorded pure-stall Step
// would, then advances the clock to target. With a scout period jump
// armed it credits the whole periods up to target and steps the rest.
func (c *Core) SkipTo(target uint64) {
	if target <= c.cycle {
		return
	}
	if c.pj.end != 0 {
		c.skipPeriods(target)
		return
	}
	n := target - c.cycle
	c.stats.ModeCycles[c.ffKind] += n
	c.stats.CPI[c.ffBucket] += n
	c.stats.DQFullStallCycles += c.ffDQStall * n
	c.stats.SSBFullStallCycles += c.ffSSBStall * n
	c.stats.AtomicStallCycles += c.ffAtStall * n
	c.stats.SecureDelayStallCycles += c.ffSecDelay * n
	c.stats.SecureNoFwdStallCycles += c.ffSecNoFwd * n
	c.stats.SecureSSBStallCycles += c.ffSecSSB * n
	p := &c.m.Pred.Stats
	p.DirLookups += c.ffLookups.DirLookups * n
	p.TageProviderHits += c.ffLookups.TageProviderHits * n
	p.BTBLookups += c.ffLookups.BTBLookups * n
	p.BTBMisses += c.ffLookups.BTBMisses * n
	if c.ffMLP > 0 {
		c.stats.MLPSamples += n
		c.stats.MLPSum += uint64(c.ffMLP) * n
	}
	if c.sink != nil {
		c.occ[0], c.occ[1], c.occ[2], c.occ[3] = len(c.dq), len(c.ssb), len(c.ckpts), len(c.pend)
		obs.EmitCycleRun(c.sink, c.cycle, target, c.mode.String(), c.occ[:])
	}
	c.stats.DQOcc.AddN(len(c.dq), n)
	c.stats.SSBOcc.AddN(len(c.ssb), n)
	c.stats.CkptOcc.AddN(len(c.ckpts), n)
	c.stats.Cycles += n
	c.cycle = target
}
