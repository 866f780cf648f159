package core

import (
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/faults"
	"rocksim/internal/isa"
)

// specScenario builds a core, runs it into live speculation — an open
// epoch with a speculatively written register, an NA destination, and a
// buffered store in the SSB — and returns it poised for a rollback.
func specScenario(t *testing.T) *Core {
	t.Helper()
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)  // miss -> checkpoint, r6 NA
		b.Movi(7, 99)              // speculative register write
		b.St(isa.OpSt64, 7, 5, 64) // speculative store -> SSB
		b.Opi(isa.OpAddi, 8, 6, 1) // NA-dependent -> DQ
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool {
		return c.Mode() == ModeSpec && c.regs[7] == 99 && len(c.ssb) > 0 && len(c.dq) > 0
	})
	return c
}

// TestRollbackRestoresStateAllCauses: for every RollbackCause, rolling
// back the epoch restores the checkpointed per-register block whole,
// drops the speculative SSB and DQ contents, attributes the cause, and
// redirects execution to the checkpoint PC.
func TestRollbackRestoresStateAllCauses(t *testing.T) {
	for cause := RollbackCause(0); cause < NumRollbackCauses; cause++ {
		t.Run(cause.String(), func(t *testing.T) {
			c := specScenario(t)
			ck := c.ckpts[0]
			if c.regs == ck.regs {
				t.Fatal("scenario did not dirty the register file")
			}
			discardedBefore := c.processed - ck.processed
			c.rollback(0, c.cycle, cause)

			if c.regState != ck.regState {
				t.Error("per-register state (values, NA bits, producers, scoreboard) not restored to checkpoint")
			}
			for _, e := range c.ssb {
				if e.seq >= ck.startSeq {
					t.Errorf("speculative SSB entry (seq %d) survived rollback", e.seq)
				}
			}
			for _, k := range c.dq {
				if e := c.dqSlots[k]; e.seq >= ck.startSeq {
					t.Errorf("speculative DQ entry (seq %d) survived rollback", e.seq)
				}
			}
			if c.Mode() != ModeNormal {
				t.Errorf("mode after full rollback = %v, want ModeNormal", c.Mode())
			}
			if got := c.Stats().RollbacksBy[cause]; got != 1 {
				t.Errorf("RollbacksBy[%v] = %d, want 1", cause, got)
			}
			if got := c.Stats().DiscardedInsts; got != discardedBefore {
				t.Errorf("DiscardedInsts = %d, want %d", got, discardedBefore)
			}
			if !c.forceProgress || c.forceProgressPC != ck.pc {
				t.Errorf("forceProgress pc = %#x, want checkpoint pc %#x", c.forceProgressPC, ck.pc)
			}

			// The rolled-back program must still complete architecturally.
			run(t, c, 50_000)
			if c.regs[7] != 99 {
				t.Errorf("r7 = %d after re-execution, want 99", c.regs[7])
			}
			if c.Retired() != 6 {
				t.Errorf("retired = %d, want 6", c.Retired())
			}
		})
	}
}

// TestInjectedRollbackThroughPlan: a fault plan's spurious-rollback
// event fires through the injector hook in Step, is attributed to
// RbInjected, and leaves architectural results intact.
func TestInjectedRollbackThroughPlan(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Movi(7, 99)
		b.Halt()
	})
	plan := &faults.Plan{Events: []faults.Event{{Kind: faults.Rollback, From: 0}}}
	c.SetFaults(plan.New(nil))
	run(t, c, 50_000)
	if got := c.Stats().RollbacksBy[RbInjected]; got != 1 {
		t.Errorf("RollbacksBy[RbInjected] = %d, want 1", got)
	}
	if c.regs[7] != 99 || c.Retired() != 4 {
		t.Errorf("architectural state wrong after injected rollback: r7=%d retired=%d",
			c.regs[7], c.Retired())
	}
}
