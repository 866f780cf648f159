package sim

import (
	"fmt"
	"strings"
	"testing"

	"rocksim/internal/asm"
)

// mustAssemble compiles source or fails the test.
func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// checkEquivalence runs the emulator oracle over prog on every core
// kind under the default options.
func checkEquivalence(t *testing.T, prog *asm.Program) {
	t.Helper()
	checkEmu(t, kindCases("program", prog, DefaultOptions(), nil)...)
}

func TestEquivalenceArithLoop(t *testing.T) {
	checkEquivalence(t, mustAssemble(t, `
		.org 0x10000
		movi r5, 1000
		movi r6, 0
		movi r7, 3
	loop:
		add  r6, r6, r5
		mul  r8, r5, r7
		xor  r6, r6, r8
		addi r5, r5, -1
		bne  r5, zero, loop
		halt
	`))
}

func TestEquivalenceMemoryStride(t *testing.T) {
	checkEquivalence(t, mustAssemble(t, `
		.org 0x10000
		movi r5, 0x200000   ; base
		movi r6, 4096       ; elements
		movi r7, 0          ; i
		movi r9, 0          ; sum
	fill:
		mul  r8, r7, r7
		st64 r8, (r5)
		addi r5, r5, 64     ; one per line: every load below misses L1 first pass
		addi r7, r7, 1
		bne  r7, r6, fill
		movi r5, 0x200000
		movi r7, 0
	sum:
		ld64 r8, (r5)
		add  r9, r9, r8
		addi r5, r5, 64
		addi r7, r7, 1
		bne  r7, r6, sum
		st64 r9, 0(zero)    ; result at address 0
		halt
	`))
}

func TestEquivalencePointerChase(t *testing.T) {
	// Build a linked ring in the data segment and chase it: the
	// canonical dependent-miss workload.
	var b strings.Builder
	const n = 512
	const base = 0x400000
	b.WriteString(".org 0x10000\n")
	fmt.Fprintf(&b, "movi r5, %d\n", base)
	fmt.Fprintf(&b, "movi r6, %d\n", 3*n) // steps
	b.WriteString(`
	chase:
		ld64 r5, (r5)
		addi r6, r6, -1
		bne  r6, zero, chase
		st64 r5, 8(zero)
		halt
	`)
	fmt.Fprintf(&b, ".data %d\n", base)
	// A stride permutation ring: node i -> (i + 257) mod n, 64B apart.
	for i := 0; i < n; i++ {
		next := (i + 257) % n
		fmt.Fprintf(&b, ".quad %d\n.zero 56\n", base+64*next)
	}
	checkEquivalence(t, mustAssemble(t, b.String()))
}

func TestEquivalenceCallsAndBranches(t *testing.T) {
	checkEquivalence(t, mustAssemble(t, `
		.org 0x10000
		.entry main
	; r5 in, r6 out: out = in*2+1 via a call
	double1:
		add  r6, r5, r5
		addi r6, r6, 1
		ret
	main:
		movi r10, 200
		movi r11, 0
	mloop:
		mv   r5, r10
		call double1
		add  r11, r11, r6
		andi r12, r10, 7
		beq  r12, zero, skip
		addi r11, r11, 5
	skip:
		addi r10, r10, -1
		bne  r10, zero, mloop
		st64 r11, 16(zero)
		halt
	`))
}

func TestEquivalenceStoreLoadForwarding(t *testing.T) {
	checkEquivalence(t, mustAssemble(t, `
		.org 0x10000
		movi r5, 0x300000
		movi r6, 300
		movi r9, 0
	loop:
		st64 r6, (r5)        ; store then immediately load back
		ld64 r7, (r5)
		add  r9, r9, r7
		st32 r9, 8(r5)       ; partial-width store
		ldu32 r8, 8(r5)
		add  r9, r9, r8
		addi r5, r5, 16
		addi r6, r6, -1
		bne  r6, zero, loop
		st64 r9, 24(zero)
		halt
	`))
}

func TestEquivalenceDivDeferral(t *testing.T) {
	checkEquivalence(t, mustAssemble(t, `
		.org 0x10000
		movi r5, 5000
		movi r6, 977
		movi r9, 1
	loop:
		div  r7, r5, r6      ; long-latency op: SST defers it
		rem  r8, r5, r9
		add  r9, r9, r7
		add  r9, r9, r8
		addi r5, r5, -7
		blt  zero, r5, loop
		st64 r9, 32(zero)
		halt
	`))
}

func TestEquivalenceCasAndMembar(t *testing.T) {
	checkEquivalence(t, mustAssemble(t, `
		.org 0x10000
		movi r5, 0x500000
		movi r10, 100
	loop:
		ld64 r6, (r5)        ; current value
		addi r7, r6, 1       ; desired
		mv   r8, r6          ; compare value
		mv   r9, r7
		cas  r9, (r5), r8    ; r9(swap-in)=desired, compare r8
		membar
		addi r10, r10, -1
		bne  r10, zero, loop
		halt
	`))
}
