// Package progen generates random but guaranteed-terminating RK64
// programs for the differential tests: every generated program runs on
// the golden emulator and on the core models, and architectural state
// must match exactly. The generator lives outside any one package's
// tests so that the simulator's differential suites and the core's own
// invariant tests draw from the same programs.
package progen

import (
	"math/rand"
	"strconv"

	"rocksim/internal/asm"
	"rocksim/internal/isa"
)

// Gen generates random but guaranteed-terminating RK64 programs:
// straight-line arithmetic, guarded loads/stores into a data window,
// counted loops, if/else diamonds, leaf calls, and occasional atomics.
// Every generated program is run on the golden emulator and on every
// core model; architectural state must match exactly. This one property
// exercises NA propagation, deferred-queue replay ordering, store-buffer
// bypass, checkpoint rollback, OOO renaming, squash and forwarding far
// more broadly than directed tests can.
type Gen struct {
	r    *rand.Rand
	b    *asm.Builder
	n    int  // label counter
	inTx bool // inside a transaction block: restrict statement kinds
	noTx bool // never emit transactions (fault-fuzz: aborts are architecturally visible)
}

// DataBase and DataSize place the data window every generated load and
// store address is masked into.
const (
	DataBase = 0x200000
	DataSize = 1 << 16
)

const (
	regBase     = 28 // holds DataBase
	regMask     = 29 // holds address mask
	regScratch  = 30
	regScratch2 = 31
	loopReg0    = 20 // loop counters by depth: r20..r23
	poolLo      = 4
	poolHi      = 19
)

func (g *Gen) reg() uint8 {
	return uint8(poolLo + g.r.Intn(poolHi-poolLo+1))
}

func (g *Gen) label(prefix string) string {
	g.n++
	return prefix + "_" + strconv.Itoa(g.n)
}

// addr computes a legal aligned data address into regScratch from a
// random pool register.
func (g *Gen) addr() {
	g.b.Op(isa.OpAnd, regScratch, g.reg(), regMask)
	g.b.Op(isa.OpAdd, regScratch, regScratch, regBase)
}

var fuzzALUOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
	isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu,
	isa.OpMul, isa.OpMulh, isa.OpDiv, isa.OpDivu, isa.OpRem, isa.OpRemu,
}

var fuzzALUImmOps = []isa.Op{
	isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
	isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpSltui,
}

var fuzzLoads = []isa.Op{
	isa.OpLd8, isa.OpLd16, isa.OpLd32, isa.OpLd64,
	isa.OpLdu8, isa.OpLdu16, isa.OpLdu32,
}

var fuzzStores = []isa.Op{isa.OpSt8, isa.OpSt16, isa.OpSt32, isa.OpSt64}

func (g *Gen) stmt(budget *int, depth int) {
	if *budget <= 0 {
		return
	}
	*budget--
	switch k := g.r.Intn(20); {
	case k < 7: // reg-reg ALU
		g.b.Op(fuzzALUOps[g.r.Intn(len(fuzzALUOps))], g.reg(), g.reg(), g.reg())
	case k < 10: // reg-imm ALU
		op := fuzzALUImmOps[g.r.Intn(len(fuzzALUImmOps))]
		imm := int32(g.r.Intn(4096) - 2048)
		if op == isa.OpSlli || op == isa.OpSrli || op == isa.OpSrai {
			imm = int32(g.r.Intn(64))
		}
		g.b.Opi(op, g.reg(), g.reg(), imm)
	case k < 13: // load
		g.addr()
		g.b.Ld(fuzzLoads[g.r.Intn(len(fuzzLoads))], g.reg(), regScratch, 0)
	case k < 15: // store
		g.addr()
		g.b.St(fuzzStores[g.r.Intn(len(fuzzStores))], g.reg(), regScratch, 0)
	case k < 16 && depth < 3 && *budget > 6: // counted loop
		iters := 1 + g.r.Intn(6)
		cnt := uint8(loopReg0 + depth)
		top := g.label("loop")
		g.b.Movi(cnt, int32(iters))
		g.b.Label(top)
		inner := 2 + g.r.Intn(5)
		if inner > *budget {
			inner = *budget
		}
		for i := 0; i < inner; i++ {
			g.stmt(budget, depth+1)
		}
		g.b.Opi(isa.OpAddi, cnt, cnt, -1)
		g.b.Br(isa.OpBne, cnt, isa.RegZero, top)
	case k < 18: // if/else diamond on data-dependent condition
		els := g.label("else")
		end := g.label("end")
		g.b.Op(isa.OpSlt, regScratch2, g.reg(), g.reg())
		g.b.Br(isa.OpBeq, regScratch2, isa.RegZero, els)
		g.stmt(budget, depth)
		g.b.Jmp(end)
		g.b.Label(els)
		g.stmt(budget, depth)
		g.b.Label(end)
	case k < 19: // atomic, barrier, or (outside loops) a transaction
		if g.inTx {
			g.b.Nop() // cas/membar abort transactions: keep them out
			break
		}
		arms := 3
		if g.noTx {
			arms = 2 // transactions excluded: capacity faults abort them visibly
		}
		switch g.r.Intn(arms) {
		case 0:
			g.addr()
			g.b.Opi(isa.OpAndi, regScratch, regScratch, ^int32(7))
			g.b.Cas(g.reg(), regScratch, g.reg())
		case 1:
			g.b.Emit(isa.Inst{Op: isa.OpMembar})
		default:
			// A short transaction of simple statements. Single-core
			// with bounded reads/writes: it always commits, so flat
			// cores (which execute it as plain code) agree.
			skip := g.label("txskip")
			g.b.TxBegin(regScratch2, skip)
			g.inTx = true
			for i := 0; i < 2+g.r.Intn(4); i++ {
				g.stmt(budget, 3) // depth 3: no nested loops
			}
			g.inTx = false
			g.b.TxCommit()
			g.b.Label(skip)
		}
	default: // prefetch or nop
		if g.r.Intn(2) == 0 {
			g.addr()
			g.b.Prefetch(regScratch, 0)
		} else {
			g.b.Nop()
		}
	}
}

// New returns a generator drawing every random decision from r, with
// its builder at the default text base. noTx leaves out transactions.
func New(r *rand.Rand, noTx bool) *Gen {
	return &Gen{r: r, b: asm.NewBuilder(asm.DefaultTextBase), noTx: noTx}
}

// Program builds one random program with nstmt top-level statements.
func Program(seed int64, nstmt int) (*asm.Program, error) {
	return New(rand.New(rand.NewSource(seed)), false).Program(nstmt)
}

// ProgramNoTx is Program without transactions. The fault-fuzz oracle
// demands bit-exact architectural state under arbitrary fault plans,
// but a capacity fault aborting a transaction is architecturally
// VISIBLE by design (ROCK's HTM is best-effort; software owns the abort
// path), so tx blocks would make benign plans "fail" the oracle.
func ProgramNoTx(seed int64, nstmt int) (*asm.Program, error) {
	return New(rand.New(rand.NewSource(seed)), true).Program(nstmt)
}

// Builder returns the builder the program is being emitted into, for
// callers that add data (a secret, say) before generating.
func (g *Gen) Builder() *asm.Builder { return g.b }

// Program emits the random program (nstmt top-level statements) and
// finishes it.
func (g *Gen) Program(nstmt int) (*asm.Program, error) {
	b := g.b

	b.SetEntry("main")

	// Two leaf functions used by call sites.
	for f := 0; f < 2; f++ {
		b.Label("leaf" + strconv.Itoa(f))
		budget := 4 + g.r.Intn(6)
		for budget > 0 {
			g.stmt(&budget, 3) // depth 3: no nested loops inside leaves
		}
		b.Ret()
	}

	b.Label("main")
	b.MovImm64(regBase, regScratch, DataBase)
	b.Movi(regMask, DataSize-8)
	// Seed the pool registers deterministically.
	for r := poolLo; r <= poolHi; r++ {
		b.Movi(uint8(r), int32(g.r.Uint32()))
	}
	budget := nstmt
	for budget > 0 {
		if g.r.Intn(12) == 0 {
			b.Call("leaf" + strconv.Itoa(g.r.Intn(2)))
			budget--
			continue
		}
		g.stmt(&budget, 0)
	}
	b.Halt()

	// Random initial data image.
	data := make([]byte, DataSize)
	g.r.Read(data)
	b.Data(DataBase, data)
	return b.Finish()
}
