// Package ooo implements the out-of-order baseline core: fetch along the
// predicted path, register renaming over a reorder buffer, a bounded
// issue window, a load/store queue with store-to-load forwarding and
// (optionally) speculative memory disambiguation with violation squash,
// and in-order commit. This is the "larger, higher-powered out-of-order
// core" the SST paper compares against; it embodies exactly the
// structures SST claims to eliminate (rename logic, reorder buffer,
// disambiguation buffer, large issue window).
package ooo

import (
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
)

// Config parameterizes the out-of-order core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	IQSize      int // issue-window: oldest unissued instructions considered
	LSQSize     int // maximum memory operations in flight in the ROB
	// SpecLoads lets loads issue past older stores with unknown
	// addresses; a later conflicting store squashes and refetches.
	SpecLoads bool
	// TakenPenalty is the fetch bubble for predicted-taken control flow.
	TakenPenalty uint64
	// MispredictPenalty is the redirect bubble after a branch resolves
	// against its prediction (models pipeline refill depth).
	MispredictPenalty uint64
}

// SmallConfig returns a modest 2-wide out-of-order core.
func SmallConfig() Config {
	return Config{
		FetchWidth: 2, IssueWidth: 2, CommitWidth: 2,
		ROBSize: 32, IQSize: 16, LSQSize: 16,
		SpecLoads:    true,
		TakenPenalty: 1, MispredictPenalty: 10,
	}
}

// LargeConfig returns an aggressive 4-wide out-of-order core — the
// paper's larger, higher-powered comparison point.
func LargeConfig() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		ROBSize: 128, IQSize: 64, LSQSize: 64,
		SpecLoads:    true,
		TakenPenalty: 1, MispredictPenalty: 14,
	}
}

// Stats extends the common statistics with out-of-order events.
type Stats struct {
	cpu.BaseStats
	Squashes           uint64 // control mispredict squashes
	MemOrderViolations uint64 // disambiguation squashes
	WrongPathInsts     uint64 // fetched then squashed
	ROBFullCycles      uint64
	FetchStallCycles   uint64
	EmptyIssueCycles   uint64 // cycles with nothing ready to issue
}

// PublishObs publishes the common core counter set plus the out-of-order
// event breakdown under "ooo/".
func (s *Stats) PublishObs(r *obs.Registry) {
	s.BaseStats.PublishObs(r)
	r.Counter("ooo/squashes").Set(s.Squashes)
	r.Counter("ooo/mem_order_violations").Set(s.MemOrderViolations)
	r.Counter("ooo/wrong_path_insts").Set(s.WrongPathInsts)
	r.Counter("ooo/stall/rob_full").Set(s.ROBFullCycles)
	r.Counter("ooo/stall/fetch").Set(s.FetchStallCycles)
	r.Counter("ooo/stall/empty_issue").Set(s.EmptyIssueCycles)
}

type source struct {
	tag    uint64 // producing seq, valid when hasTag
	reg    uint8
	hasTag bool
}

// robEntry leads with what the issue scan reads of an entry it visits
// (and of a producer it resolves), so a visit touches one cache line of
// the entry, not several. Flags and narrow fields share one word. The
// entry's wait record lives in Core.waits, beside it.
type robEntry struct {
	seq        uint64
	issued     bool
	executed   bool // result value computed
	addrValid  bool
	predTaken  bool // control prediction made at fetch
	hasPredTgt bool
	nsrc       uint8
	msize      uint8

	readyAt uint64 // cycle the result is usable / entry committable
	value   int64  // destination value
	in      isa.Inst
	pc      uint64

	src [3]source

	// Memory state.
	addr     uint64
	storeVal int64

	predTarget uint64
}

// Core is the out-of-order pipeline model.
type Core struct {
	cfg Config
	m   *cpu.Machine
	fe  *cpu.Frontend

	regs   [isa.NumRegs]int64 // committed architectural state
	regTag [isa.NumRegs]uint64
	tagOK  [isa.NumRegs]bool

	// rob is a ring indexed by seq&mask: its length is ROBSize rounded up
	// to a power of two, while occupancy stays capped at ROBSize.
	rob      []robEntry
	mask     uint64
	count    int
	headSeq  uint64 // seq of the oldest entry
	nextSeq  uint64
	memOps   int    // loads+stores currently in the ROB
	stores   int    // stores currently in the ROB
	issueSeq uint64 // seq of the oldest unissued entry (nextSeq if none)

	// Issue-window index over the ring slots (see window.go).
	unissued  []uint64
	ready     []uint64
	timed     []uint64
	waits     []waitRec
	waiters   []int32 // per producer slot: 1 + the first parked waiter's slot
	unissuedN int
	wordSlots int // ring slots per word of a set: min(64, len(rob))
	// wakeMin is the earliest wakeAt among timed entries (0 = none): the
	// cycle at which one of them can next issue.
	wakeMin uint64

	// Fetch blocking conditions.
	fetchBlockedSeq uint64 // waiting for this jalr to resolve
	fetchBlocked    bool
	fetchGarbage    bool // decode failed on (presumed) wrong path
	haltFetched     bool

	cycle uint64
	done  bool
	err   error

	stats Stats
	sink  obs.Sink
	occ   [2]int

	// Fast-forward state, valid while cycle < ffNext: the last Step was a
	// pure stall (nothing committed, issued or fetched) whose per-cycle
	// stall charges were ffRobFull/ffFetchStall/ffEmptyIssue with ffMLP
	// outstanding data misses. Self-expiring once the clock reaches
	// ffNext.
	ffNext       uint64
	ffRobFull    uint64
	ffFetchStall uint64
	ffEmptyIssue uint64
	ffMLP        int
}

var _ cpu.FastForwarder = (*Core)(nil)

// oooOccNames are the occupancy tracks reported through the sink.
var oooOccNames = []string{"rob", "memops"}

// SetSink installs an observability sink (nil disables).
func (c *Core) SetSink(s obs.Sink) {
	c.sink = s
	if s != nil {
		s.Attach("ooo", oooOccNames)
	}
}

// New creates an out-of-order core executing from entry.
func New(m *cpu.Machine, cfg Config, entry uint64) *Core {
	if cfg.FetchWidth < 1 {
		cfg.FetchWidth = 1
	}
	if cfg.IssueWidth < 1 {
		cfg.IssueWidth = 1
	}
	if cfg.CommitWidth < 1 {
		cfg.CommitWidth = 1
	}
	if cfg.ROBSize < 2 {
		cfg.ROBSize = 2
	}
	if cfg.IQSize < 1 {
		cfg.IQSize = 1
	}
	if cfg.LSQSize < 1 {
		cfg.LSQSize = 1
	}
	n := 1
	for n < cfg.ROBSize {
		n <<= 1
	}
	words := (n + 63) / 64
	return &Core{
		cfg:       cfg,
		m:         m,
		fe:        cpu.NewFrontend(m, entry),
		rob:       make([]robEntry, n),
		mask:      uint64(n - 1),
		unissued:  make([]uint64, words),
		ready:     make([]uint64, words),
		timed:     make([]uint64, words),
		waits:     make([]waitRec, n),
		waiters:   make([]int32, n),
		wordSlots: min(n, 64),
	}
}

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the program has halted.
func (c *Core) Done() bool { return c.done }

// Retired returns committed instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// Base returns the common statistics block.
func (c *Core) Base() *cpu.BaseStats { return &c.stats.BaseStats }

// Stats returns the full out-of-order statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Err returns a fatal simulation error, if any.
func (c *Core) Err() error { return c.err }

// Regs returns the committed register file (for test validation).
func (c *Core) Regs() [isa.NumRegs]int64 { return c.regs }

// slot returns the ring slot of seq; it holds that entry while seq is in
// [headSeq, nextSeq).
func (c *Core) slot(seq uint64) *robEntry { return &c.rob[seq&c.mask] }

// Step advances the core one cycle: commit, issue/execute, fetch.
func (c *Core) Step() {
	now := c.cycle
	retiredBefore := c.stats.Retired
	seqBefore := c.nextSeq
	robFull0, fetchStall0, empty0 := c.stats.ROBFullCycles, c.stats.FetchStallCycles, c.stats.EmptyIssueCycles
	c.commit(now)
	issued := 0
	if !c.done && c.err == nil {
		issued = c.issue(now)
		c.fetch(now)
	}
	outstanding := c.m.Hier.OutstandingDataMisses(c.m.CoreID, now)
	c.stats.SampleMLP(outstanding)
	if c.stats.Retired > retiredBefore {
		c.stats.CPI[cpu.BktRetire]++
	} else {
		c.stats.CPI[c.stallBucket(outstanding)]++
	}
	if c.sink != nil {
		c.occ[0], c.occ[1] = c.count, c.memOps
		c.sink.CycleState(now, "normal", int(c.stats.Retired-retiredBefore), 0, c.occ[:])
	}
	c.stats.Cycles++
	c.cycle++

	if c.stats.Retired == retiredBefore && issued == 0 && c.nextSeq == seqBefore && !c.done && c.err == nil {
		// Pure stall: commit, issue and fetch all made zero progress, so
		// the only per-cycle effects were the stall charges below — and
		// they repeat unchanged until the earliest pending timer fires.
		c.ffRobFull = c.stats.ROBFullCycles - robFull0
		c.ffFetchStall = c.stats.FetchStallCycles - fetchStall0
		c.ffEmptyIssue = c.stats.EmptyIssueCycles - empty0
		c.ffMLP = outstanding
		c.ffNext = c.nextTimer(now)
	} else {
		c.ffNext = 0
	}
}

// stallBucket attributes a no-retire cycle by the head-of-ROB blocker:
// an empty ROB is a frontend problem, outstanding data misses mean the
// memory system is the wait, and anything else is a short-latency
// dependency chain (issue-window scoreboarding). The inputs (ROB count,
// outstanding misses) are exactly the quantities the fast-forward purity
// proof holds constant, so SkipTo can replay the same attribution.
func (c *Core) stallBucket(outstanding int) cpu.Bucket {
	switch {
	case c.count == 0:
		return cpu.BktFetch
	case outstanding > 0:
		return cpu.BktMSHR
	default:
		return cpu.BktScoreboard
	}
}

// nextTimer returns the earliest cycle strictly after now at which a
// pure stall can end: the head's result landing (which unblocks
// commit), an examined entry's wait record expiring (which unblocks
// issue), a fetch-line delivery, or an in-flight L1D fill expiring
// (which changes MLP accounting). Nothing else can change first: every
// other examined entry waits on an unexecuted producer that must issue
// first, or on reaching the head, and entries outside the issue window
// enter it only when an older one issues. 0 = no timer pending; a
// wedged core then falls back to naive stepping and the livelock
// watchdog.
func (c *Core) nextTimer(now uint64) uint64 {
	var next uint64
	bound := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	if h := c.slot(c.headSeq); c.count > 0 && h.executed {
		bound(h.readyAt)
	}
	bound(c.wakeMin)
	bound(c.fe.NextDelivery(now))
	bound(c.m.Hier.NextDataFill(c.m.CoreID, now))
	return next
}

// NextEvent implements cpu.FastForwarder (see inorder.Core.NextEvent).
func (c *Core) NextEvent() uint64 {
	if c.ffNext > c.cycle {
		return c.ffNext
	}
	return 0
}

// SkipTo implements cpu.FastForwarder: it credits cycles
// [Cycle(), target) exactly as repeating the recorded pure-stall Step
// would, then advances the clock to target.
func (c *Core) SkipTo(target uint64) {
	n := target - c.cycle
	c.stats.ROBFullCycles += c.ffRobFull * n
	c.stats.FetchStallCycles += c.ffFetchStall * n
	c.stats.EmptyIssueCycles += c.ffEmptyIssue * n
	c.stats.CPI[c.stallBucket(c.ffMLP)] += n
	if c.ffMLP > 0 {
		c.stats.MLPSamples += n
		c.stats.MLPSum += uint64(c.ffMLP) * n
	}
	if c.sink != nil {
		c.occ[0], c.occ[1] = c.count, c.memOps
		obs.EmitCycleRun(c.sink, c.cycle, target, "normal", c.occ[:])
	}
	c.stats.Cycles += n
	c.cycle = target
}

// fetch brings up to FetchWidth instructions into the ROB along the
// predicted path.
func (c *Core) fetch(now uint64) {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchBlocked || c.fetchGarbage || c.haltFetched {
			return
		}
		if c.count >= c.cfg.ROBSize {
			c.stats.ROBFullCycles++
			return
		}
		if c.fe.Stalled(now) {
			return
		}
		next, pc, ok, err := c.fe.Next(now)
		if err != nil {
			// Decode failure: assume wrong-path garbage and wait for a
			// squash to redirect fetch. A genuine illegal instruction
			// surfaces as a cycle-limit error in the harness.
			c.fetchGarbage = true
			return
		}
		if !ok {
			c.stats.FetchStallCycles++
			return
		}
		in := *next
		if in.Op.IsMem() && c.memOps >= c.cfg.LSQSize {
			return
		}

		// Build the entry in its free ring slot; count and nextSeq publish
		// it below. Zeroing the slot in place and then setting fields
		// spares building the entry in a temporary and copying it over.
		e := c.slot(c.nextSeq)
		*e = robEntry{}
		e.seq, e.in, e.pc = c.nextSeq, in, pc
		c.captureSources(e)
		c.enter(int(c.nextSeq & c.mask))
		redirected := false

		switch in.Op.Class() {
		case isa.ClassBranch:
			e.predTaken = c.m.Pred.PredictDir(pc)
			if e.predTaken {
				c.fe.Redirect(in.BranchTarget(pc), now, c.cfg.TakenPenalty)
				redirected = true
			}
		case isa.ClassJump:
			if in.Op == isa.OpJal {
				if in.Rd == isa.RegRA {
					c.m.Pred.PushReturn(pc + isa.InstSize)
				}
				c.fe.Redirect(in.BranchTarget(pc), now, c.cfg.TakenPenalty)
				redirected = true
			} else {
				var tgt uint64
				var have bool
				if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
					tgt, have = c.m.Pred.PopReturn()
				} else {
					tgt, have = c.m.Pred.PredictTarget(pc)
				}
				if in.Rd == isa.RegRA {
					c.m.Pred.PushReturn(pc + isa.InstSize)
				}
				if have {
					e.predTarget, e.hasPredTgt = tgt, true
					c.fe.Redirect(tgt, now, c.cfg.TakenPenalty)
					redirected = true
				} else {
					// No target prediction: block fetch until it resolves.
					c.fetchBlocked = true
					c.fetchBlockedSeq = e.seq
				}
			}
		case isa.ClassHalt:
			c.haltFetched = true
		}

		// Rename: record this entry as the latest producer.
		if rd, has := in.DestReg(); has {
			c.regTag[rd] = e.seq
			c.tagOK[rd] = true
		}
		if in.Op.IsMem() {
			c.memOps++
		}
		if in.Op.IsStore() {
			c.stores++
		}
		c.count++
		c.nextSeq++
		if !redirected {
			c.fe.Advance()
		}
		if redirected {
			return // redirect consumes the rest of the fetch group
		}
	}
}

// captureSources records, per source register, either a dependence tag
// on an in-flight producer or the fact that the committed register file
// will hold the value.
func (c *Core) captureSources(e *robEntry) {
	n := e.in.NumSrcs()
	e.nsrc = uint8(n)
	for i := 0; i < n; i++ {
		r := e.in.Src(i)
		e.src[i] = source{reg: r}
		if r != isa.RegZero && c.tagOK[r] {
			e.src[i].tag = c.regTag[r]
			e.src[i].hasTag = true
		}
	}
}

// commit retires up to CommitWidth completed instructions from the head.
func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := c.slot(c.headSeq)
		if !e.executed || e.readyAt > now {
			return
		}
		in := e.in
		if rd, has := in.DestReg(); has {
			c.regs[rd] = e.value
			if c.tagOK[rd] && c.regTag[rd] == e.seq {
				c.tagOK[rd] = false
			}
		}
		switch in.Op.Class() {
		case isa.ClassStore:
			c.m.Mem.Write(e.addr, int(e.msize), uint64(e.storeVal))
			c.m.Hier.Access(c.m.CoreID, mem.AccWrite, e.addr, now)
			c.m.StoreVisible(e.addr)
			c.stats.Stores++
			c.stores--
		case isa.ClassAtomic:
			// The memory side already executed at issue (head-only).
			c.stats.Stores++
		case isa.ClassHalt:
			c.done = true
		}
		c.stats.Retired++
		if in.Op.IsMem() {
			c.memOps--
		}
		c.count--
		c.headSeq++
		if c.done {
			return
		}
	}
}

// squashAfter removes every entry younger than seq (exclusive: seq
// survives) and redirects fetch to target with the given penalty.
func (c *Core) squashAfter(seq uint64, target uint64, now, penalty uint64) {
	keep := int(seq-c.headSeq) + 1
	if keep < 0 {
		keep = 0
	}
	end := c.headSeq + uint64(keep)
	for s := end; s < c.nextSeq; s++ {
		e := c.slot(s)
		c.drop(int(s&c.mask), end)
		if e.in.Op.IsMem() {
			c.memOps--
		}
		if e.in.Op.IsStore() {
			c.stores--
		}
		c.stats.WrongPathInsts++
	}
	// A dropped timed entry may have set wakeMin. Every timed entry that
	// survives wakes after now (the issue stage expired the rest before
	// it could squash), so this only recomputes the minimum.
	c.expireTimed(now)
	c.count = keep
	c.nextSeq = end
	// issueSeq needs no clamp: a squash comes from an entry issuing, at
	// or after the cursor, and that entry survives.
	// Rebuild the rename map from surviving entries.
	for i := range c.tagOK {
		c.tagOK[i] = false
	}
	c.fetchBlocked = false
	c.fetchGarbage = false
	c.haltFetched = false
	for s := c.headSeq; s < end; s++ {
		e := c.slot(s)
		if rd, has := e.in.DestReg(); has {
			c.regTag[rd] = e.seq
			c.tagOK[rd] = true
		}
		if e.in.Op.Class() == isa.ClassHalt {
			c.haltFetched = true
		}
	}
	c.fe.Redirect(target, now, penalty)
}
