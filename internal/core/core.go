// Package core implements Simultaneous Speculative Threading (SST), the
// checkpoint-based pipeline of Sun's ROCK processor and the primary
// contribution of the reproduced paper.
//
// The core is an in-order pipeline extended with:
//
//   - register checkpoints taken at long-latency events (cache-missing
//     loads, optionally divides), which replace the reorder buffer;
//   - a not-available (NA) bit per register, which replaces renaming:
//     instructions reading an NA register are appended — with the
//     operand values that are available — to the Deferred Queue (DQ);
//   - a speculative store buffer (SSB) holding stores until their epoch
//     commits, which replaces the memory-disambiguation machinery;
//   - a second hardware strand that replays the DQ when miss data
//     returns while the first strand keeps executing ahead — the
//     "simultaneous" in SST;
//   - hardware-scout (runahead) operation as the degenerate mode when
//     deferral is impossible, prefetching but discarding results.
//
// Speculation fails on a deferred branch (or indirect target) that was
// predicted wrong, or on SSB overflow during replay; failure rolls the
// machine back to the enclosing checkpoint. Atomics and barriers
// serialize: the ahead strand stalls until all epochs commit.
package core

import (
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/isa"
	"rocksim/internal/obs"
	"rocksim/internal/stats"
)

// snapAfterQuiet is how many consecutive quiet cycles must precede a
// Step before it takes the purity snapshot: one more than the two quiet
// cycles of a taken-branch redirect (the bubble, then the refetch's L1I
// hit). See the skip.go header.
const snapAfterQuiet = 3

// ckptLifeLimit bounds the checkpoint-lifetime histogram; longer
// lifetimes clamp into the overflow bucket.
const ckptLifeLimit = 4096

// Config parameterizes the SST core.
type Config struct {
	// Width is the ahead strand's issue width.
	Width int
	// ReplayWidth is the deferred strand's replay width (used only when
	// SecondStrand is true).
	ReplayWidth int
	// Checkpoints is the number of register checkpoints, i.e. the
	// maximum number of concurrently speculating epochs. Zero degrades
	// the core to a stall-on-use in-order pipeline.
	Checkpoints int
	// DQSize is the Deferred Queue capacity in instructions. Zero
	// degrades speculation to hardware scout (pure runahead).
	DQSize int
	// SSBSize is the speculative store buffer capacity.
	SSBSize int
	// SecondStrand enables the second hardware strand: DQ replay runs
	// simultaneously with the ahead strand. When false the core is the
	// execute-ahead-only ablation: replay steals ahead-strand slots.
	SecondStrand bool
	// ScoutOnDQFull switches to hardware scout when the DQ fills,
	// discarding all deferred work for pure prefetching; otherwise the
	// ahead strand stalls until replay drains entries (preserving the
	// deferred work — the better default when a second strand exists).
	ScoutOnDQFull bool
	// DeferLongOps defers long-latency arithmetic like misses.
	DeferLongOps bool
	// LongOpMinLatency is the minimum latency (cycles) for an
	// arithmetic op to be deferred rather than scoreboarded. Divides
	// qualify; short multiplies do not (deferring them just manufactures
	// unpredictable deferred branches).
	LongOpMinLatency int
	// CheckpointPerMiss takes a fresh checkpoint (when one is free) at
	// each deferring miss, bounding rollback granularity.
	CheckpointPerMiss bool
	// CheckpointOnDeferredBranch takes a checkpoint (when one is free)
	// right before a branch that must be predicted because its operands
	// are NA. Deferred-branch mispredicts are the dominant speculation
	// failure; a checkpoint at the branch bounds the rollback to the
	// branch itself instead of the whole epoch.
	CheckpointOnDeferredBranch bool

	TakenPenalty      uint64
	MispredictPenalty uint64
	// RollbackPenalty is the pipeline refill bubble after restoring a
	// checkpoint.
	RollbackPenalty uint64

	// Secure-speculation mitigations (see secure.go and
	// docs/SECURITY.md). Each closes a transient-leakage channel the
	// sim.Instance.CheckTransientLeakage oracle can demonstrate on the unmitigated
	// core, at a cost charged to a dedicated CPI bucket.

	// SecureDelayOnMiss forbids speculative loads from changing
	// observable cache state: speculative hits probe without touching
	// LRU, speculative misses start no fill and hold the load until it
	// is the oldest unresolved instruction. Speculative prefetches
	// (store-triggered and software) are suppressed too.
	SecureDelayOnMiss bool
	// SecureNoNAForward quarantines every speculative load result: the
	// fill still issues (keeping the prefetching benefit) but the value
	// may not forward to consumers until the load is the oldest
	// unresolved instruction, so no secret-dependent address can form
	// under speculation.
	SecureNoNAForward bool
	// SecureEagerSSBFlush closes the speculative-store channels only:
	// speculative stores issue no prefetch, and loads may not consume a
	// speculative store's data (store-to-load forwarding out of the SSB
	// is held until the load is oldest-unresolved).
	SecureEagerSSBFlush bool
}

// DefaultConfig returns the ROCK-like SST core: 2-wide ahead strand,
// 2-wide replay strand, 4 checkpoints, 64-entry DQ, 32-entry SSB.
func DefaultConfig() Config {
	return Config{
		Width:                      2,
		ReplayWidth:                2,
		Checkpoints:                4,
		DQSize:                     64,
		SSBSize:                    32,
		SecondStrand:               true,
		ScoutOnDQFull:              false,
		DeferLongOps:               true,
		LongOpMinLatency:           10,
		CheckpointPerMiss:          true,
		CheckpointOnDeferredBranch: true,
		TakenPenalty:               2,
		MispredictPenalty:          8,
		RollbackPenalty:            6,
	}
}

// ScoutConfig is the hardware-scout (runahead) ablation: no deferred
// queue at all — a miss checkpoints, runs ahead purely for prefetching,
// and re-executes everything when the miss returns. The store buffer
// remains (it is physical hardware, also needed by transactions); only
// the deferred queue is absent.
func ScoutConfig() Config {
	c := DefaultConfig()
	c.DQSize = 0
	c.SecondStrand = false
	c.Checkpoints = 1
	return c
}

// Mode is the operating mode of the core.
type Mode uint8

// Core modes.
const (
	ModeNormal Mode = iota // no live checkpoints
	ModeSpec               // speculating with a deferred queue
	ModeScout              // runahead: prefetch only, results discarded
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeSpec:
		return "spec"
	case ModeScout:
		return "scout"
	}
	return "?"
}

// CycleKind classifies each cycle for the execution-time breakdown
// (paper figure F2).
type CycleKind uint8

// Cycle classifications.
const (
	CyNormal       CycleKind = iota // normal mode, instructions executed
	CyNormalStall                   // normal mode, no progress
	CyAhead                         // speculating: only the ahead strand progressed
	CyReplay                        // speculating: only the deferred strand progressed
	CySimultaneous                  // both strands progressed (the SST win)
	CySpecStall                     // speculating, neither strand progressed
	CyScout                         // hardware scout
	NumCycleKinds
)

func (k CycleKind) String() string {
	switch k {
	case CyNormal:
		return "normal"
	case CyNormalStall:
		return "normal-stall"
	case CyAhead:
		return "ahead"
	case CyReplay:
		return "replay"
	case CySimultaneous:
		return "simultaneous"
	case CySpecStall:
		return "spec-stall"
	case CyScout:
		return "scout"
	}
	return "?"
}

// RollbackCause identifies why speculation failed.
type RollbackCause uint8

// Rollback causes.
const (
	RbBranch    RollbackCause = iota // deferred branch mispredicted
	RbJalr                           // deferred indirect target mispredicted
	RbSSB                            // store buffer overflow during replay
	RbScout                          // scheduled scout-mode rollback
	RbMemOrder                       // deferred store conflicted with an ahead load
	RbInjected                       // spurious rollback forced by a fault plan
	RbCoherence                      // remote store hit the speculative read set
	NumRollbackCauses
)

func (r RollbackCause) String() string {
	switch r {
	case RbBranch:
		return "branch"
	case RbJalr:
		return "jalr"
	case RbSSB:
		return "ssb-overflow"
	case RbScout:
		return "scout"
	case RbMemOrder:
		return "mem-order"
	case RbInjected:
		return "injected"
	case RbCoherence:
		return "coherence"
	}
	return "?"
}

// Stats extends the common statistics with SST-specific accounting.
type Stats struct {
	cpu.BaseStats

	CheckpointsTaken uint64
	EpochCommits     uint64
	Rollbacks        uint64
	RollbacksBy      [NumRollbackCauses]uint64

	Deferrals             uint64 // instructions placed in the DQ
	Replays               uint64 // DQ entries successfully replayed
	DeferredBranches      uint64
	DeferredBranchMispred uint64
	PendingMisses         uint64 // deferred-result events (miss loads, long ops)

	ScoutEntries   uint64 // transitions into scout mode
	ScoutInsts     uint64 // instructions processed while scouting
	DiscardedInsts uint64 // speculative work undone by rollbacks

	ModeCycles         [NumCycleKinds]uint64
	DQFullStallCycles  uint64
	SSBFullStallCycles uint64
	AtomicStallCycles  uint64

	// Secure-speculation accounting (see secure.go). The StallCycles
	// counters bump once per cycle in which the named mitigation is
	// holding a result back; the event counters count the held items.
	SecureDelayStallCycles uint64 // cycles with a fill-denied load waiting (SecureDelayOnMiss)
	SecureNoFwdStallCycles uint64 // cycles with a ready-but-quarantined result waiting (SecureNoNAForward)
	SecureSSBStallCycles   uint64 // cycles with a forwarding-denied load waiting (SecureEagerSSBFlush)
	SecureBlockedLoads     uint64 // speculative loads denied a fill or SSB forward
	SecureQuarantined      uint64 // speculative load results quarantined
	SecureReleases         uint64 // held results released at oldest-unresolved
	SecurePrefetchDenied   uint64 // speculative prefetches suppressed

	// Tx counts hardware-transactional-memory events (the HTM extension
	// built on the checkpoint/SSB machinery).
	Tx TxStats

	DQOcc    *stats.Hist // deferred-queue occupancy per cycle
	SSBOcc   *stats.Hist // store-buffer occupancy per cycle
	CkptOcc  *stats.Hist // live checkpoints per cycle
	CkptLife *stats.Hist // checkpoint lifetime (cycles from take to commit/abort)
}

// regState is the per-register state: the block a checkpoint saves and
// a rollback or transaction abort restores with one assignment. Every
// per-register array belongs here (a reflect test enforces it), so a
// new one is checkpointed and restored with no other edit.
type regState struct {
	regs       [isa.NumRegs]int64
	na         [isa.NumRegs]bool
	lastWriter [isa.NumRegs]uint64
	readyAt    [isa.NumRegs]uint64 // short-wait scoreboard (L1 hits, ALU lat)
}

// checkpoint snapshots everything needed to restart execution at the
// instruction that triggered it.
type checkpoint struct {
	startSeq uint64 // seq of the triggering instruction
	pc       uint64 // its PC (rollback target)
	takenAt  uint64 // cycle the checkpoint was taken (lifetime accounting)
	regState
	ghr       uint64 // branch-history snapshot
	processed uint64 // architectural instruction count at checkpoint

	// cpi snapshots the cycle-accounting stack at checkpoint take, so a
	// rollback can re-attribute every cycle spent since to the rollback's
	// cause bucket ("cycles discarded"). CPI only grows between take and
	// rollback, so the re-attribution delta is exact.
	cpi [cpu.NumBuckets]uint64
}

// dqEntry is one deferred instruction with its captured operands.
type dqEntry struct {
	seq  uint64
	in   isa.Inst
	pc   uint64
	vals [3]int64  // captured available operand values
	dep  [3]uint64 // producing seq for NA operands
	isNA [3]bool
	nsrc int

	predTaken  bool   // deferred conditional branch prediction
	predTarget uint64 // deferred indirect target prediction

	// For deferred stores whose address was available (only the data
	// was NA): later loads disambiguate against this address instead of
	// deferring unconditionally.
	memAddrKnown bool
	memAddr      uint64
	memSize      int
}

// pendingResult is an in-flight deferred value: a missing load or a
// long-latency operation whose result arrives at a future cycle.
type pendingResult struct {
	seq   uint64
	rd    uint8
	val   int64
	ready uint64

	// Secure-speculation hold state (see secure.go). A blocked entry has
	// not performed its memory access yet (ready is the secureHold
	// sentinel); a quarantined entry holds an arrived value that may not
	// forward to consumers. Both release only once the entry is the
	// oldest unresolved instruction.
	op          isa.Op
	addr        uint64
	pc          uint64
	blocked     bool
	quarantined bool
	secSSB      bool // blocked by SecureEagerSSBFlush, not SecureDelayOnMiss
}

// ssbEntry is one speculative store, ordered by seq.
type ssbEntry struct {
	seq  uint64
	addr uint64
	size int
	val  int64
}

// readRec is one speculative load in the read set.
type readRec struct {
	seq  uint64
	addr uint64
	size int
}

// Core is the SST pipeline model.
type Core struct {
	cfg    Config
	m      *cpu.Machine
	fe     *cpu.Frontend
	l1dHit uint64 // the L1D hit latency: a data access slower than it is a miss

	regState

	mode  Mode
	seq   uint64 // next sequence number (monotonic, never rewinds)
	ckpts []checkpoint
	dq    []int32 // live DQ slots in program order (see dq.go)
	ssb   []ssbEntry
	pend  []pendingResult

	// The deferred queue's stable slots, its free-slot stack and the
	// wakeup chains of its waiting operands (see dq.go). Sized once at
	// construction, emptied in place by Reset.
	dqSlots  []dqEntry
	dqFree   []int32
	waitHead []int32
	waitNext []int32
	waitMask uint64

	// pendMin is the earliest ready cycle among the pend entries deliver
	// can deliver, those neither blocked nor quarantined (secureHold when
	// there are none; meaningful only while pend is non-empty). deliver
	// scans the list only once the clock reaches it. pushPend lowers it
	// on append, a secure release when a blocked load gets its arrival
	// cycle, quarantineLast re-derives it when the entry it flags set it,
	// and keepPend re-derives it whenever entries leave the list.
	pendMin uint64

	// pendSeqMin is the smallest seq among pend entries (meaningful only
	// while pend is non-empty), kept by pushPend and keepPend. With the
	// seq-ordered DQ's head it makes oldestUnresolvedSeq O(1).
	pendSeqMin uint64

	// sbHorizon is a monotonic upper bound on every readyAt value the
	// scoreboard has ever held. Once the clock passes it, no register is
	// still waiting on a short-latency producer and nextTimer can skip
	// the scoreboard scan entirely.
	sbHorizon uint64

	dqStores int // deferred stores currently in the DQ

	// dqReady counts DQ entries whose operands have all resolved, so the
	// replay strand's oldest-ready scan short-circuits to nothing when
	// every entry is still waiting (the common state while misses are
	// outstanding). Maintained by forward (an entry's last NA flag
	// clears), replay (a ready entry dequeues) and rollback (squash).
	dqReady int

	// readSet records speculative loads, ahead and replayed, in the
	// order they executed: not seq-sorted, since replayed loads append
	// after younger ahead loads, so commitEpochs and rollback filter it
	// by seq and readSetConflict scans it whole. A deferred store whose
	// address was unknown verifies against it at replay: overlap with a
	// younger load means the load read stale data and speculation must
	// roll back. This is how SST keeps loads flowing past unresolved
	// stores without a disambiguation CAM.
	readSet []readRec

	// processed counts instructions handled by the ahead strand since
	// program start; rolled back with checkpoints. Architectural retire
	// count advances from it at epoch commits.
	processed uint64

	scoutTriggerSeq   uint64 // pending seq whose delivery triggers rollback
	scoutTriggerReady uint64 // its arrival cycle: no exit check before it
	scoutArmed        bool

	// Forward-progress guarantee: after a rollback the triggering
	// instruction executes without opening new speculation, so that a
	// long-latency event that recurs identically (e.g. a divide, or a
	// re-evicted line) cannot livelock the checkpoint/rollback loop.
	forceProgress   bool
	forceProgressPC uint64

	// Hardware transactional memory state (see htm.go).
	tx            txState
	invalListener bool

	// cohSeq, when non-zero, is the oldest speculative load whose line a
	// remote store invalidated since the last Step: its value may be
	// stale (ahead loads capture values at issue, deferred loads at
	// replay — either can be overtaken by a remote commit), so the epoch
	// containing it must roll back. Set by the coherence listener during
	// another core's Step, consumed at the top of ours (see
	// coherence.go); NextEvent refuses to fast-forward past it.
	cohSeq uint64

	// sink, when set, observes cycles and events (see probe.go and
	// internal/obs); occ is its per-cycle scratch buffer.
	sink obs.Sink
	occ  [4]int

	// flt, when set, is consulted at the speculation decision points
	// (checkpoint allocation, DQ/SSB insertion, deferred-branch
	// prediction, rollback) and may perturb them. Nil injects nothing.
	flt *faults.Injector

	done  bool
	err   error
	cycle uint64

	// resolveDirty gates the per-cycle commit scan: it is set whenever
	// something resolves or is squashed (delivery, replay, rollback, tx
	// events) and cleared when commitEpochs finds the oldest epoch still
	// blocked. While clear, the oldest unresolved seq cannot have grown
	// and the epoch boundary only moves up, so the scan is skipped.
	resolveDirty bool

	// quiet counts the consecutive Steps, up to snapAfterQuiet, that made
	// no progress; stall detection (the purity snapshot in skip.go) only
	// runs once it is full. See snapAfterQuiet.
	quiet uint8

	// feStall records that the ahead strand broke on the frontend this
	// Step (redirect bubble, line fill, or wrong-path garbage), for the
	// CPI-stack attribution of stall cycles. Reset at Step entry.
	feStall bool

	// secPending counts pend entries currently held by a secure mode
	// (blocked or quarantined); the per-cycle release scan in secure.go
	// is gated on it so insecure runs pay nothing. The secure paths count
	// the holds they append, and keepPend re-derives it.
	secPending int

	// specFills logs the seq of every speculative access that started a
	// cache fill while secrets were installed (see secure.go); rollback
	// counts the squashed suffix into the hierarchy's leak statistics.
	specFills []uint64

	// Fast-forward state, valid while cycle < ffNext: the last Step was a
	// pure stall that moved the counter words recorded in ff, and nothing
	// can change before ffNext (see skip.go). Self-expiring: once the
	// clock reaches ffNext, NextEvent reports no skip and the next Step
	// re-derives everything.
	ffNext uint64
	ff     credit

	stats Stats

	// pj is the scout period jump's detection state and armed jump (see
	// period.go).
	pj periodJump

	// snapBuf is the reused snapshot buffer for the detection cycles. It
	// holds a whole Stats block, so it sits last, away from the fields
	// every Step touches.
	snapBuf stepSnap
}

// New creates an SST core executing from entry.
func New(m *cpu.Machine, cfg Config, entry uint64) *Core {
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	if cfg.ReplayWidth < 1 {
		cfg.ReplayWidth = 1
	}
	if cfg.Checkpoints < 0 {
		cfg.Checkpoints = 0
	}
	if cfg.DQSize < 0 {
		cfg.DQSize = 0
	}
	c := &Core{
		cfg:    cfg,
		m:      m,
		fe:     cpu.NewFrontend(m, entry),
		l1dHit: uint64(m.Hier.Config().L1D.HitLatency),
		stats: Stats{
			DQOcc:    stats.NewHist(max(cfg.DQSize, 1)),
			SSBOcc:   stats.NewHist(max(cfg.SSBSize, 1)),
			CkptOcc:  stats.NewHist(max(cfg.Checkpoints, 1)),
			CkptLife: stats.NewHist(ckptLifeLimit),
		},
	}
	if cfg.Checkpoints > 0 {
		c.ckpts = make([]checkpoint, 0, cfg.Checkpoints)
	}
	c.dqInit(cfg.DQSize)
	c.Reset(entry)
	return c
}

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the program has halted.
func (c *Core) Done() bool { return c.done }

// Retired returns architecturally retired instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// Base returns the common statistics block.
func (c *Core) Base() *cpu.BaseStats { return &c.stats.BaseStats }

// Stats returns the full SST statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Err returns a fatal simulation error, if any.
func (c *Core) Err() error { return c.err }

// Mode returns the current operating mode (for tests and examples).
func (c *Core) Mode() Mode { return c.mode }

// Regs returns the architectural register file. Valid once Done — while
// speculating it reflects speculative state.
func (c *Core) Regs() [isa.NumRegs]int64 { return c.regs }

// SetFaults installs a fault injector (see internal/faults). Pass nil
// to disable. Injected faults perturb microarchitectural decisions only;
// the speculation machinery must keep them architecturally invisible
// (enforced by internal/sim's fault-fuzz oracle).
func (c *Core) SetFaults(in *faults.Injector) { c.flt = in }

// Step advances the core one cycle.
func (c *Core) Step() {
	now := c.cycle
	c.ffNext = 0
	c.pj.end, c.pj.head = 0, false
	c.feStall = false
	dq0, ssb0, at0 := c.stats.DQFullStallCycles, c.stats.SSBFullStallCycles, c.stats.AtomicStallCycles
	sd0, snf0, sfl0 := c.stats.SecureDelayStallCycles, c.stats.SecureNoFwdStallCycles, c.stats.SecureSSBStallCycles
	checkStall := c.quiet >= snapAfterQuiet
	if checkStall {
		c.snapInto(&c.snapBuf)
	}

	c.deliver(now)
	if c.tx.active && c.tx.abort != 0 {
		c.txAbort(now)
	}
	if c.cohSeq != 0 {
		c.applyCoherence(now)
	}
	if c.flt != nil && c.mode == ModeSpec && !c.tx.active && len(c.ckpts) > 0 &&
		c.flt.WantSpuriousRollback(now) {
		// A scheduled transient fault: squash the youngest epoch. The
		// event stays armed until a cycle with live speculation to roll
		// back (and never fires inside a transaction, whose checkpoint is
		// owned by the HTM machinery).
		c.rollback(len(c.ckpts)-1, now, RbInjected)
		c.flt.RollbackApplied(now)
	}

	replayed := 0
	aheadBudget := c.cfg.Width
	if c.mode == ModeSpec {
		budget := c.cfg.ReplayWidth
		if !c.cfg.SecondStrand {
			budget = aheadBudget
		}
		replayed = c.replay(now, budget)
		if !c.cfg.SecondStrand {
			aheadBudget -= replayed
		}
	}
	if c.err != nil {
		return
	}

	if c.mode == ModeSpec && c.resolveDirty {
		c.commitEpochs(now)
	}

	if c.mode == ModeScout && !(c.scoutArmed && now < c.scoutTriggerReady) {
		// Before its ready cycle the scout trigger is certainly still
		// outstanding (see maybeScoutRollback).
		c.maybeScoutRollback(now)
	}

	executed := 0
	if !c.done && c.err == nil && aheadBudget > 0 {
		executed = c.ahead(now, aheadBudget)
	}
	if c.err != nil {
		return
	}

	c.classifyCycle(executed, replayed)
	if c.sink != nil {
		c.occ[0], c.occ[1], c.occ[2], c.occ[3] = len(c.dq), len(c.ssb), len(c.ckpts), len(c.pend)
		c.sink.CycleState(now, c.mode.String(), executed, replayed, c.occ[:])
	}
	outstanding := c.m.Hier.OutstandingDataMisses(c.m.CoreID, now)
	c.stats.SampleMLP(outstanding)
	bucket := c.classifyBucket(executed, replayed, dq0, ssb0, at0, sd0, snf0, sfl0, outstanding)
	c.stats.CPI[bucket]++
	c.stats.DQOcc.Add(len(c.dq))
	c.stats.SSBOcc.Add(len(c.ssb))
	c.stats.CkptOcc.Add(len(c.ckpts))
	c.stats.Cycles++
	c.cycle++
	switch {
	case executed != 0 || replayed != 0 || c.done:
		c.quiet = 0
	case c.quiet < snapAfterQuiet:
		c.quiet++
	}
	if checkStall {
		c.noteStall(&c.snapBuf, executed, replayed, now)
	}
	if c.pj.head {
		c.notePeriod()
	}
}

// classifyBucket attributes the cycle for the CPI stack. Any strand
// progress — architectural, speculative or scout — counts as retire;
// cycles of work later squashed are re-attributed to the rollback's
// cause when it happens (see rollback). A stall cycle is named by the
// structural counter it bumped this Step, then by the memory system,
// then by the frontend, defaulting to a scoreboard (dependency) wait.
// Every input is held constant across a fast-forward window, so SkipTo
// replays the same attribution in bulk.
func (c *Core) classifyBucket(executed, replayed int, dq0, ssb0, at0, sd0, snf0, sfl0 uint64, outstanding int) cpu.Bucket {
	if executed > 0 || replayed > 0 {
		return cpu.BktRetire
	}
	switch {
	case c.stats.DQFullStallCycles > dq0:
		return cpu.BktDQFull
	case c.stats.SSBFullStallCycles > ssb0:
		return cpu.BktSSBFull
	case c.stats.AtomicStallCycles > at0:
		return cpu.BktAtomic
	// Secure-mode holds outrank the memory system: a held result is the
	// proximate blocker even while its (or another) miss is outstanding.
	case c.stats.SecureDelayStallCycles > sd0:
		return cpu.BktSecureDelay
	case c.stats.SecureNoFwdStallCycles > snf0:
		return cpu.BktSecureNoFwd
	case c.stats.SecureSSBStallCycles > sfl0:
		return cpu.BktSecureSSB
	case outstanding > 0:
		return cpu.BktMSHR
	case c.feStall:
		return cpu.BktFetch
	default:
		return cpu.BktScoreboard
	}
}

// classifyCycle counts the cycle in its mode-cycle bucket.
func (c *Core) classifyCycle(executed, replayed int) {
	var k CycleKind
	switch c.mode {
	case ModeNormal:
		if executed > 0 {
			k = CyNormal
		} else {
			k = CyNormalStall
		}
	case ModeScout:
		k = CyScout
	default:
		switch {
		case executed > 0 && replayed > 0:
			k = CySimultaneous
		case executed > 0:
			k = CyAhead
		case replayed > 0:
			k = CyReplay
		default:
			k = CySpecStall
		}
	}
	c.stats.ModeCycles[k]++
}

// deliver applies pending deferred results whose data has arrived.
// Entries held by a secure-speculation mode (blocked or quarantined) are
// exempt from the time-based scan, and from pendMin, so a held entry
// past its ready cycle does not make every cycle rescan the list;
// secureRelease frees them when they become the oldest unresolved
// instruction.
func (c *Core) deliver(now uint64) {
	if c.secPending > 0 {
		c.secureRelease(now)
	}
	if len(c.pend) == 0 || now < c.pendMin {
		return
	}
	c.keepPend(func(p *pendingResult) bool {
		if p.ready > now || p.blocked || p.quarantined {
			return true
		}
		c.forward(p.seq, p.val)
		c.deliverRF(p.seq, p.rd, p.val, now)
		c.resolveDirty = true
		return false
	})
}

// keepPend keeps the pend entries for which keep reports true, calling
// it once per entry in list order, and re-derives pendMin, pendSeqMin
// and secPending from the entries kept. Every removal from pend goes
// through it.
func (c *Core) keepPend(keep func(p *pendingResult) bool) {
	live := c.pend[:0]
	c.secPending = 0
	c.pendMin = secureHold
	for i := range c.pend {
		p := &c.pend[i]
		if !keep(p) {
			continue
		}
		if len(live) == 0 || p.seq < c.pendSeqMin {
			c.pendSeqMin = p.seq
		}
		if p.blocked || p.quarantined {
			c.secPending++
		} else {
			c.pendMin = min(c.pendMin, p.ready)
		}
		live = append(live, *p)
	}
	c.pend = live
}

// pushPend records a new pending result, keeping pendMin and pendSeqMin.
func (c *Core) pushPend(p pendingResult) {
	if len(c.pend) == 0 {
		c.pendMin = secureHold
	}
	if !p.blocked && !p.quarantined {
		c.pendMin = min(c.pendMin, p.ready)
	}
	if len(c.pend) == 0 || p.seq < c.pendSeqMin {
		c.pendSeqMin = p.seq
	}
	c.pend = append(c.pend, p)
}

// deliverRF writes a resolved value into the architectural register file
// if no younger instruction has claimed the register since — and into
// every checkpoint copy that is still waiting on it, exactly as the
// hardware broadcasts fills to all checkpointed register files. Without
// the checkpoint update, a rollback could resurrect an NA bit whose
// producer has already delivered and will never deliver again.
func (c *Core) deliverRF(seq uint64, rd uint8, v int64, now uint64) {
	if rd == isa.RegZero {
		return
	}
	if c.lastWriter[rd] == seq {
		c.regs[rd] = v
		c.na[rd] = false
		c.readyAt[rd] = now
	}
	for i := range c.ckpts {
		ck := &c.ckpts[i]
		if ck.na[rd] && ck.lastWriter[rd] == seq {
			ck.regs[rd] = v
			ck.na[rd] = false
			ck.readyAt[rd] = now
		}
	}
}

// markNA marks rd not-available with the given producer.
func (c *Core) markNA(rd uint8, seq uint64) {
	if rd == isa.RegZero {
		return
	}
	c.na[rd] = true
	c.lastWriter[rd] = seq
}
