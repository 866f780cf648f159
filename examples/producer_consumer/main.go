// Producer/consumer example: two SST cores sharing memory. The producer
// writes a record and publishes it with a flag store behind a barrier;
// the consumer spins on the flag. Demonstrates that the speculative
// store buffer never leaks unpublished data and that coherence
// invalidations propagate the handshake.
//
//	go run ./examples/producer_consumer
package main

import (
	"fmt"
	"log"

	"rocksim"
)

const src = `
	.org 0x10000
producer:
	movi r5, 0x200000
	movi r6, 12345
	st64 r6, 8(r5)        ; the record
	movi r6, 67890
	st64 r6, 16(r5)
	membar                ; publish barrier
	movi r7, 1
	st64 r7, (r5)         ; flag
	halt
consumer:
	movi r5, 0x200000
spin:	ld64 r6, (r5)
	beq  r6, zero, spin   ; wait for the flag
	ld64 r7, 8(r5)
	ld64 r8, 16(r5)
	add  r9, r7, r8
	st64 r9, 24(r5)       ; consume: 12345+67890
	halt
`

func main() {
	prog, err := rocksim.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	prod, ok := prog.Symbol("producer")
	if !ok {
		log.Fatal("no producer symbol")
	}
	cons, ok := prog.Symbol("consumer")
	if !ok {
		log.Fatal("no consumer symbol")
	}

	opts := rocksim.DefaultOptions()
	opts.MaxCycles = 50_000_000
	chip, err := rocksim.NewSharedChip(rocksim.SST, prog, []uint64{prod, cons}, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := rocksim.RunChip(chip, opts); err != nil {
		log.Fatal(err)
	}

	sum := chip.Machines[0].Mem.Read(0x200000+24, 8)
	fmt.Printf("consumer computed %d (want %d)\n", sum, 12345+67890)
	fmt.Printf("chip ran %d cycles; %d coherence invalidations\n",
		chip.Cycle(), chip.Hier.Stats.CoherenceInvals)
	for i, c := range chip.Cores {
		fmt.Printf("core %d: %d instructions, IPC %.3f\n", i, c.Retired(),
			float64(c.Retired())/float64(c.Cycle()))
	}
}
