// HTM example: ROCK was the first commercial processor with hardware
// transactional memory, built directly on the SST checkpoint and
// speculative-store-buffer machinery this repository implements. Four
// SST cores increment a shared counter and append to a shared log using
// txbegin/txcommit retry loops — no locks, no cas — and the result is
// exact, with conflict aborts doing the serialization.
//
//	go run ./examples/htm
package main

import (
	"fmt"
	"log"

	"rocksim"
)

const src = `
	.org 0x10000
worker:
	movi r5, 0x200000     ; shared counter
	movi r20, 200         ; increments per core
loop:
	txbegin r10, handler
	ld64 r6, (r5)         ; read counter
	addi r6, r6, 1
	st64 r6, (r5)         ; buffered until commit
	slli r7, r6, 3        ; log[old+1] = new value (8B slots)
	add  r7, r7, r5
	st64 r6, 256(r7)      ; second store: log entry
	txcommit
	addi r20, r20, -1
	bne  r20, zero, loop
	halt
handler:
	j loop                ; simple unconditional retry
`

func main() {
	prog, err := rocksim.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	entry, _ := prog.Symbol("worker")
	const nCores = 4
	entries := make([]uint64, nCores)
	for i := range entries {
		entries[i] = entry
	}
	opts := rocksim.DefaultOptions()
	chip, err := rocksim.NewSharedChip(rocksim.SST, prog, entries, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := rocksim.RunChip(chip, opts); err != nil {
		log.Fatal(err)
	}

	want := uint64(nCores * 200)
	got := chip.Machines[0].Mem.Read(0x200000, 8)
	fmt.Printf("shared counter: %d (want %d) in %d cycles\n", got, want, chip.Cycle())

	var commits, aborts uint64
	for i := range chip.Cores {
		st, ok := rocksim.ChipSSTStats(chip, i)
		if !ok {
			log.Fatalf("core %d has no SST stats", i)
		}
		fmt.Printf("core %d: %d commits, %d aborts (%d conflicts, %d capacity)\n",
			i, st.Tx.Commits, st.Tx.Aborts,
			st.Tx.AbortsByCode[rocksim.TxAbortConflict],
			st.Tx.AbortsByCode[rocksim.TxAbortCapacity])
		commits += st.Tx.Commits
		aborts += st.Tx.Aborts
	}
	fmt.Printf("total: %d commits, %d aborts — every increment exact, no locks\n", commits, aborts)

	// Verify the log: entries 1..want must all be present.
	ok := true
	for i := uint64(1); i <= want; i++ {
		if chip.Machines[0].Mem.Read(0x200000+256+i*8, 8) != i {
			ok = false
			break
		}
	}
	fmt.Printf("log consistent: %v\n", ok)
}
