package cmp_test

// Memory-consistency litmus tests. The RK64 shared-memory machine is
// TSO, like ROCK's SPARC: stores may be buffered past younger loads of
// other addresses (SB's 0,0 is legal) but loads are ordered (MP's 1,0
// and LB's 1,1 are forbidden) and speculative stores are never globally
// visible before their epoch commits. Each litmus runs the classic
// two-thread program across a sweep of relative delays — on the SMT
// model (two in-order hardware threads, cycle-interleaved over one
// functional memory) and on shared-memory CMP chips mixing in-order and
// SST cores — and asserts that only allowed outcomes ever appear.
//
// The SST cases are the interesting ones: an ahead-strand load captures
// its value at issue while a deferred load (NA address) reads at
// replay, so without coherence repair a remote store landing between
// the two reads would be observed out of program order. The
// RbCoherence read-set invalidation rollback (internal/core/
// coherence.go) closes exactly that window; TestLitmusCMPMessagePassing
// fails without it.

import (
	"fmt"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cmp"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
	"rocksim/internal/sim"
	"rocksim/internal/smt"
)

// Shared data layout (one address per cache line; 64-byte lines).
const (
	litMbox  = 0x200000 // invisibility mailbox
	litX     = 0x200100 // data
	litY     = 0x200200 // flag
	litPtr   = 0x200300 // holds &litY (forces an NA-address deferral)
	litRes0  = 0x200400 // core 0 observed values
	litRes1  = 0x200500 // core 1 observed values
	litU0    = 0x200600 // cold line: opens core 0's epoch
	litU1    = 0x200700 // cold line: opens core 1's epoch
	litCondW = 0x200800 // warm branch condition (0)
	litCondC = 0x200900 // cold branch condition (1)
	litDone  = 0x200a00 // writer-finished flag
	litObs   = 0x200b00 // observer results
)

const litPoison = 0xDEAD

// litData emits the shared data image every litmus program starts from.
func litData() string {
	return fmt.Sprintf(`
	.data %#x
	.quad 0
	.data %#x
	.quad 0
	.data %#x
	.quad 0
	.data %#x
	.quad %#x
	.data %#x
	.quad 0
	.quad 0
	.data %#x
	.quad 0
	.quad 0
	.data %#x
	.quad 7
	.data %#x
	.quad 7
	.data %#x
	.quad 0
	.data %#x
	.quad 1
	.data %#x
	.quad 0
	.data %#x
	.quad 0
	.quad 0
	`, litMbox, litX, litY, litPtr, litY, litRes0, litRes1,
		litU0, litU1, litCondW, litCondC, litDone, litObs)
}

// delayLoop emits a counted spin of n iterations with unique labels.
func delayLoop(tag string, n int) string {
	return fmt.Sprintf(`
	movi r20, %d
dspin_%s:
	beq  r20, zero, dgo_%s
	addi r20, r20, -1
	j    dspin_%s
dgo_%s:
	`, n, tag, tag, tag, tag)
}

// runLitmusChip assembles src and runs it on a two-core shared-memory
// chip; kinds[i] selects "inorder" or "sst" for core i. Returns the
// chip (final memory is Machines[0].Mem — shared).
func runLitmusChip(t *testing.T, src string, kinds [2]string, plans [2]*faults.Plan) *cmp.Chip {
	t.Helper()
	prog := mustAssemble(t, src)
	opts := sim.DefaultOptions()
	entries := make([]uint64, 2)
	for i := range entries {
		sym := fmt.Sprintf("core%d", i)
		e, ok := prog.Symbol(sym)
		if !ok {
			t.Fatalf("no %s symbol", sym)
		}
		entries[i] = e
	}
	chip, err := cmp.NewShared(opts.Hier, opts.Pred, prog, entries,
		func(id int, m *cpu.Machine, e uint64) (cpu.Core, error) {
			switch kinds[id] {
			case "sst":
				c := core.New(m, opts.SST, e)
				if plans[id] != nil {
					c.SetFaults(plans[id].New(nil))
				}
				return c, nil
			default:
				return inorder.New(m, opts.InOrder, e), nil
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return chip
}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}

func rd64(m *mem.Sparse, addr uint64) int64 { return int64(m.Read(addr, 8)) }

// outcomeSet collects distinct (a,b) observations across a delay sweep.
type outcomeSet map[[2]int64]bool

func (s outcomeSet) String() string {
	out := ""
	for k := range s {
		out += fmt.Sprintf("(%d,%d) ", k[0], k[1])
	}
	return out
}

// ---------------------------------------------------------------------
// CMP litmus
// ---------------------------------------------------------------------

// sbSrc is the store-buffering litmus: each core stores its own flag
// then loads the other's. The cold litU loads open SST epochs first so
// the stores are genuinely buffered in the SSB. membar, when set,
// orders the store before the load (spec-mode barriers serialize).
func sbSrc(d0, d1 int, membar bool) string {
	bar := ""
	if membar {
		bar = "\tmembar\n"
	}
	return fmt.Sprintf(`
	.org 0x10000
core0:
	%s
	movi r5, %#x
	ld64 r6, (r5)      ; cold: opens the epoch on SST
	movi r7, %#x
	movi r8, 1
	st64 r8, (r7)      ; st X = 1
%s	movi r9, %#x
	ld64 r1, (r9)      ; r1 = Y
	movi r10, %#x
	st64 r1, (r10)
	halt
core1:
	%s
	movi r5, %#x
	ld64 r6, (r5)
	movi r7, %#x
	movi r8, 1
	st64 r8, (r7)      ; st Y = 1
%s	movi r9, %#x
	ld64 r2, (r9)      ; r2 = X
	movi r10, %#x
	st64 r2, (r10)
	halt
`+litData(), delayLoop("w", d0), litU0, litX, bar, litY, litRes0,
		delayLoop("r", d1), litU1, litY, bar, litX, litRes1)
}

// mpSrc is the message-passing litmus. The writer publishes data (X)
// then flag (Y), in order. The reader's flag load goes through a
// pointer whose cold load leaves the address NA, so on SST the flag is
// read at replay time while the younger data load captured its value at
// issue — the exact window the coherence rollback must close.
func mpSrc(d0 int) string {
	return fmt.Sprintf(`
	.org 0x10000
core0:
	%s
	movi r5, %#x
	movi r6, %#x
	movi r7, 1
	st64 r7, (r5)      ; st X = 1 (data)
	st64 r7, (r6)      ; st Y = 1 (flag)
	halt
core1:
	movi r5, %#x
	ld64 r6, (r5)      ; cold: r6 <- &Y, NA until the miss returns
	ld64 r1, (r6)      ; flag: address NA, deferred, read at replay
	movi r7, %#x
	ld64 r2, (r7)      ; data: read at issue (speculative)
	movi r8, %#x
	st64 r1, (r8)
	movi r9, %#x
	st64 r2, (r9)
	halt
`+litData(), delayLoop("w", d0), litX, litY, litPtr, litX, litRes0, litRes1)
}

// lbSrc is the load-buffering litmus: each core loads the other's
// variable then stores 1 to its own. (1,1) requires both loads to see
// stores that are younger in the other thread — forbidden under TSO.
func lbSrc(d0, d1 int) string {
	return fmt.Sprintf(`
	.org 0x10000
core0:
	%s
	movi r5, %#x
	ld64 r1, (r5)      ; r1 = X (cold miss: defers on SST)
	movi r6, %#x
	movi r7, 1
	st64 r7, (r6)      ; st Y = 1
	movi r8, %#x
	st64 r1, (r8)
	halt
core1:
	%s
	movi r5, %#x
	ld64 r2, (r5)      ; r2 = Y
	movi r6, %#x
	movi r7, 1
	st64 r7, (r6)      ; st X = 1
	movi r8, %#x
	st64 r2, (r8)
	halt
`+litData(), delayLoop("a", d0), litX, litY, litRes0,
		delayLoop("b", d1), litY, litX, litRes1)
}

var litmusDelays = []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 90, 150, 250, 400}

// TestLitmusCMPStoreBuffering sweeps SB on in-order and SST chips. The
// in-order cores execute stores to functional memory immediately, so
// they are sequentially consistent: (0,0) must not appear. The SST
// chip buffers stores in the SSB but commits loads atomically (a load
// whose line is invalidated before commit rolls back), which also
// excludes (0,0); any other combination is fair game.
func TestLitmusCMPStoreBuffering(t *testing.T) {
	for _, kinds := range [][2]string{{"inorder", "inorder"}, {"sst", "sst"}} {
		seen := outcomeSet{}
		for _, d0 := range litmusDelays {
			for _, d1 := range []int{0, 40, 150} {
				chip := runLitmusChip(t, sbSrc(d0, d1, false), kinds, [2]*faults.Plan{})
				m := chip.Machines[0].Mem
				o := [2]int64{rd64(m, litRes0), rd64(m, litRes1)}
				seen[o] = true
				if o[0] == 0 && o[1] == 0 {
					t.Fatalf("%v d=(%d,%d): observed (0,0) — store became visible after both loads committed", kinds, d0, d1)
				}
				if o[0]&^1 != 0 || o[1]&^1 != 0 {
					t.Fatalf("%v d=(%d,%d): garbage outcome (%d,%d)", kinds, d0, d1, o[0], o[1])
				}
			}
		}
		if len(seen) < 2 {
			t.Errorf("%v: sweep saw only %v — delays not exercising interleavings", kinds, seen)
		}
	}
}

// TestLitmusCMPStoreBufferingMembar: with membar between the store and
// the load the (0,0) exclusion holds trivially; this variant pins the
// barrier path (spec-mode membar serializes the epoch).
func TestLitmusCMPStoreBufferingMembar(t *testing.T) {
	for _, d0 := range []int{0, 8, 55, 250} {
		chip := runLitmusChip(t, sbSrc(d0, 20, true), [2]string{"sst", "sst"}, [2]*faults.Plan{})
		m := chip.Machines[0].Mem
		a, b := rd64(m, litRes0), rd64(m, litRes1)
		if a == 0 && b == 0 {
			t.Fatalf("d=%d: (0,0) with membar", d0)
		}
	}
}

// TestLitmusCMPMessagePassing is the TSO load-ordering proof on SST:
// flag==1 implies data==1, even though the flag load replays late and
// the data load captured its value early. Fails without the
// RbCoherence read-set invalidation rollback. The sweep must actually
// open the window: we require both the (1,1) outcome and at least one
// coherence rollback to have been observed somewhere in the sweep.
func TestLitmusCMPMessagePassing(t *testing.T) {
	seen := outcomeSet{}
	var cohRollbacks uint64
	for _, d0 := range litmusDelays {
		chip := runLitmusChip(t, mpSrc(d0), [2]string{"inorder", "sst"}, [2]*faults.Plan{})
		m := chip.Machines[0].Mem
		flag, data := rd64(m, litRes0), rd64(m, litRes1)
		seen[[2]int64{flag, data}] = true
		if flag == 1 && data == 0 {
			t.Fatalf("d=%d: observed flag=1 data=0 — loads reordered past a remote store (TSO violation)", d0)
		}
		cohRollbacks += chip.Cores[1].(*core.Core).Stats().RollbacksBy[core.RbCoherence]
	}
	if !seen[[2]int64{1, 1}] {
		t.Errorf("sweep never saw (1,1): writer always lost the race, outcomes %v", seen)
	}
	if cohRollbacks == 0 {
		t.Errorf("sweep never triggered a coherence rollback: the stale-read window was not exercised, outcomes %v", seen)
	}
}

// TestLitmusCMPLoadBuffering: (1,1) would need each load to observe the
// other core's younger store; SST replays loads before its own stores
// drain at commit, so the cycle is impossible.
func TestLitmusCMPLoadBuffering(t *testing.T) {
	for _, kinds := range [][2]string{{"inorder", "inorder"}, {"sst", "sst"}} {
		for _, d0 := range litmusDelays {
			chip := runLitmusChip(t, lbSrc(d0, 25), kinds, [2]*faults.Plan{})
			m := chip.Machines[0].Mem
			a, b := rd64(m, litRes0), rd64(m, litRes1)
			if a == 1 && b == 1 {
				t.Fatalf("%v d=%d: observed (1,1) — a speculative store was visible before commit", kinds, d0)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Speculative-store invisibility
// ---------------------------------------------------------------------

// invisSrc: the SST writer trains a branch not-taken for many
// iterations (each harmlessly storing 0 to the mailbox), then loads its
// condition from a cold line. The miss defers the branch, the trained
// predictor sends the wrong path through a POISON store into the SSB,
// and the replayed branch rolls the epoch back. The in-order observer
// spins on the mailbox and latches whether it EVER saw the poison;
// committed state must show it never did. This extends the single-core
// fault-invisibility oracle (internal/sim's emulator oracle under a
// fault plan) to
// multi-strand visibility: not even another core on the same chip may
// witness squashed stores.
func invisSrc() string {
	return fmt.Sprintf(`
	.org 0x10000
core0:
	movi r20, 200       ; training iterations
	movi r5, %#x        ; mailbox
	movi r11, %#x       ; warm condition (value 0... loaded below)
	movi r12, %#x       ; cold condition (value 1)
	movi r13, %#x       ; poison
	sub  r15, r12, r11  ; cond stride
	; warm the training condition line (holds 7; write 0 for training)
	st64 zero, (r11)
wl:
	slti r8, r20, 2     ; 1 on the final iteration
	mul  r14, r8, r15
	add  r14, r14, r11  ; cond addr: warm during training, cold at the end
	ld64 r6, (r14)
	mul  r16, r8, r13   ; store value: 0 during training, POISON at the end
	bne  r6, zero, wskip ; trained not-taken; final real outcome: taken
	st64 r16, (r5)      ; wrong path on the final iteration
wskip:
	addi r20, r20, -1
	bne  r20, zero, wl
	movi r17, 0x600D
	st64 r17, (r5)      ; architectural final mailbox value
	movi r18, %#x
	movi r19, 1
	st64 r19, (r18)     ; raise done
	halt
core1:
	movi r5, %#x        ; mailbox
	movi r18, %#x       ; done flag
	movi r4, 0          ; poison-seen latch
	movi r7, %d
ospin:
	ld64 r6, (r5)
	bne  r6, r7, onp
	movi r4, 1
onp:
	ld64 r8, (r18)
	beq  r8, zero, ospin
	ld64 r6, (r5)       ; final mailbox read after done
	movi r9, %#x
	st64 r4, (r9)
	movi r10, %#x
	st64 r6, (r10)
	halt
`+litData(), litMbox, litCondW, litCondC, litPoison, litDone,
		litMbox, litDone, litPoison, litObs, litObs+8)
}

func checkInvisibility(t *testing.T, plan *faults.Plan, wantMispredict bool) {
	t.Helper()
	chip := runLitmusChip(t, invisSrc(), [2]string{"sst", "inorder"}, [2]*faults.Plan{plan, nil})
	m := chip.Machines[0].Mem
	if seen := rd64(m, litObs); seen != 0 {
		t.Fatalf("observer saw the squashed speculative POISON store")
	}
	if mbox := rd64(m, litObs+8); mbox != 0x600D {
		t.Fatalf("final mailbox %#x, want 0x600D", mbox)
	}
	st := chip.Cores[0].(*core.Core).Stats()
	if wantMispredict && st.RollbacksBy[core.RbBranch] == 0 {
		t.Fatalf("writer never rolled back a deferred branch: the wrong-path store was not exercised (rollbacks %v)", st.RollbacksBy)
	}
}

// TestLitmusSpeculativeStoreInvisibility proves squashed SSB stores are
// never globally visible, and that the test has teeth (the wrong path
// demonstrably executed and rolled back).
func TestLitmusSpeculativeStoreInvisibility(t *testing.T) {
	checkInvisibility(t, nil, true)
}

// TestLitmusInvisibilityUnderMispredictStorm repeats the invisibility
// proof with a fault plan flipping branch predictions on the writer:
// however speculation is perturbed, squashed stores stay invisible.
func TestLitmusInvisibilityUnderMispredictStorm(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		plan := &faults.Plan{Seed: seed, Events: []faults.Event{{
			Kind: faults.MispredictStorm, From: 0, To: 5000, Arg: 8,
		}}}
		checkInvisibility(t, plan, false)
	}
}

// ---------------------------------------------------------------------
// SMT litmus
// ---------------------------------------------------------------------

// runLitmusSMT runs src's core0/core1 entries as the two hardware
// threads of one SMT in-order core sharing one functional memory.
func runLitmusSMT(t *testing.T, src string) *mem.Sparse {
	t.Helper()
	prog := mustAssemble(t, src)
	opts := sim.DefaultOptions()
	hier, err := mem.NewHierarchy(opts.Hier, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared := mem.NewSparse()
	prog.Load(shared)
	mkThread := func(sym string) smt.Thread {
		e, ok := prog.Symbol(sym)
		if !ok {
			t.Fatalf("no %s symbol", sym)
		}
		mach := &cpu.Machine{Mem: shared, Hier: hier, CoreID: 0, Pred: bpred.New(opts.Pred)}
		return smt.Thread{Core: inorder.New(mach, opts.InOrder, e), Mach: mach}
	}
	c, err := smt.New(mkThread("core0"), mkThread("core1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(c, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return shared
}

// TestLitmusSMT sweeps all three litmus shapes on the SMT model. Two
// cycle-interleaved in-order threads over one memory are sequentially
// consistent, so beyond the TSO exclusions the SC-only SB exclusion
// (0,0) holds as well.
func TestLitmusSMT(t *testing.T) {
	sbSeen := outcomeSet{}
	for _, d0 := range litmusDelays {
		for _, d1 := range []int{0, 35, 140} {
			m := runLitmusSMT(t, sbSrc(d0, d1, false))
			a, b := rd64(m, litRes0), rd64(m, litRes1)
			sbSeen[[2]int64{a, b}] = true
			if a == 0 && b == 0 {
				t.Fatalf("SB d=(%d,%d): (0,0) on an SC machine", d0, d1)
			}

			m = runLitmusSMT(t, lbSrc(d0, d1))
			if rd64(m, litRes0) == 1 && rd64(m, litRes1) == 1 {
				t.Fatalf("LB d=(%d,%d): observed (1,1)", d0, d1)
			}
		}
		m := runLitmusSMT(t, mpSrc(d0))
		if rd64(m, litRes0) == 1 && rd64(m, litRes1) == 0 {
			t.Fatalf("MP d=%d: flag=1 data=0", d0)
		}
	}
	if len(sbSeen) < 2 {
		t.Errorf("SB sweep saw only %v", sbSeen)
	}
}
