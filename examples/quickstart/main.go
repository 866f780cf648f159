// Quickstart: assemble a tiny RK64 program, run it on the SST core and
// on the in-order baseline, and print what the checkpoint machinery did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rocksim"
)

// The program walks a small table with a data-dependent second access —
// a miniature of the miss-then-dependent-work pattern SST targets.
const src = `
	.org 0x10000
	movi r5, table       ; base
	movi r6, 64          ; iterations
	movi r9, 0           ; checksum
loop:
	ld64 r7, (r5)        ; likely a cache miss on first touch
	addi r8, r7, 3       ; dependent work is deferred, not stalled on
	add  r9, r9, r8
	addi r5, r5, 4096    ; stride past the caches' ways
	addi r6, r6, -1
	bne  r6, zero, loop
	st64 r9, 8(zero)
	halt
	.data 0x200000
table:	.quad 7
`

func main() {
	prog, err := rocksim.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}

	opts := rocksim.DefaultOptions()
	for _, kind := range []rocksim.CoreKind{rocksim.InOrder, rocksim.SST} {
		res, err := rocksim.Run(kind, prog, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8v  %8d cycles  %6d insts  IPC %.3f  MLP %.2f\n",
			kind, res.Cycles, res.Retired, res.IPC(), res.Base.MLP())
		if st, ok := rocksim.SSTStats(res); ok {
			fmt.Printf("          %d checkpoints, %d epoch commits, %d deferrals, %d replays, %d rollbacks\n",
				st.CheckpointsTaken, st.EpochCommits, st.Deferrals, st.Replays, st.Rollbacks)
		}
	}

	// Architectural truth is independent of the core: the functional
	// emulator gives the same result.
	emu, mem, err := rocksim.Emulate(prog, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden    %8s         %6d insts  checksum=%d\n",
		"-", emu.Executed, mem.Read(8, 8))
}
