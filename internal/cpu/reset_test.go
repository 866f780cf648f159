package cpu

import (
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/resetcheck"
)

// TestFrontendResetMatchesFresh: a frontend reset mid-fetch, inside a
// redirect bubble, holds the state of a fresh one apart from its decode
// memo, which survives on purpose.
func TestFrontendResetMatchesFresh(t *testing.T) {
	prog, err := asm.Assemble(`
		movi r1, 1
		movi r2, 2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine(t, prog)
	used := NewFrontend(mach, prog.Entry)
	for now := uint64(0); now < 2000; now += 100 {
		if _, _, ok, err := used.Next(now); err != nil {
			t.Fatal(err)
		} else if ok {
			used.Advance()
		}
	}
	used.Redirect(prog.Entry, 2000, 5)
	used.Reset(prog.Entry)
	fresh, reset := *NewFrontend(mach, prog.Entry), *used
	reset.memo = fresh.memo
	if d := resetcheck.Diff(fresh, reset); d != "" {
		t.Errorf("reset frontend differs from fresh at %s", d)
	}
}
