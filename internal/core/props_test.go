package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

func propCore(t *testing.T) *Core {
	t.Helper()
	mach, err := cpu.NewMachine(mem.NewSparse(), testHier(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(mach, DefaultConfig(), 0)
}

// TestSSBInsertKeepsOrder: regardless of insertion order, the SSB stays
// sorted by sequence number (the invariant composeLoad depends on).
func TestSSBInsertKeepsOrder(t *testing.T) {
	f := func(seqs []uint16) bool {
		c := propCore(t)
		c.cfg.SSBSize = 1 << 16
		for _, s := range seqs {
			c.ssbInsert(ssbEntry{seq: uint64(s), addr: uint64(s) * 8, size: 8, val: int64(s)})
		}
		for i := 1; i < len(c.ssb); i++ {
			if c.ssb[i-1].seq > c.ssb[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestComposeLoadMatchesReference: composing a load over memory and the
// SSB must equal a byte-wise reference model, for arbitrary store sets.
func TestComposeLoadMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		c := propCore(t)
		c.cfg.SSBSize = 1 << 16
		const base = 0x1000
		const window = 64
		// Background memory.
		bg := make([]byte, window)
		r.Read(bg)
		c.m.Mem.WriteBytes(base, bg)
		// Random speculative stores with random seqs.
		type st struct {
			seq  uint64
			addr uint64
			size int
			val  int64
		}
		var sts []st
		for i := 0; i < 10; i++ {
			sizes := []int{1, 2, 4, 8}
			size := sizes[r.Intn(4)]
			s := st{
				seq:  uint64(r.Intn(100)),
				addr: base + uint64(r.Intn(window-size)),
				size: size,
				val:  int64(r.Uint64()),
			}
			sts = append(sts, s)
			c.ssbInsert(ssbEntry(s))
		}
		uptoSeq := uint64(r.Intn(120))
		loadSizes := []int{1, 2, 4, 8}
		size := loadSizes[r.Intn(4)]
		addr := base + uint64(r.Intn(window-size))

		got := c.composeLoad(addr, size, uptoSeq)

		// Reference: apply stores with seq < uptoSeq in seq order onto
		// the background bytes (stable order for equal seqs must match
		// the SSB's insertion semantics: later-inserted equal-seq
		// entries land after, i.e. win). Replicate by sorting stably.
		ref := make([]byte, window)
		copy(ref, bg)
		// Insertion into the SSB is stable for equal seqs.
		ordered := make([]st, 0, len(sts))
		for _, s := range sts {
			pos := len(ordered)
			for pos > 0 && ordered[pos-1].seq > s.seq {
				pos--
			}
			ordered = append(ordered, st{})
			copy(ordered[pos+1:], ordered[pos:])
			ordered[pos] = s
		}
		for _, s := range ordered {
			if s.seq >= uptoSeq {
				continue
			}
			for b := 0; b < s.size; b++ {
				ref[s.addr+uint64(b)-base] = byte(uint64(s.val) >> (8 * b))
			}
		}
		var want uint64
		for i := size - 1; i >= 0; i-- {
			want = want<<8 | uint64(ref[addr-base+uint64(i)])
		}
		if got != want {
			t.Fatalf("trial %d: compose(%#x,%d,upto=%d) = %#x, want %#x",
				trial, addr, size, uptoSeq, got, want)
		}
	}
}

// TestEpochOfMonotonic: epochOf returns the youngest checkpoint at or
// before the sequence number.
func TestEpochOfMonotonic(t *testing.T) {
	c := propCore(t)
	c.ckpts = []checkpoint{{startSeq: 10}, {startSeq: 25}, {startSeq: 60}}
	cases := map[uint64]int{10: 0, 24: 0, 25: 1, 59: 1, 60: 2, 1000: 2, 5: 0}
	for seq, want := range cases {
		if got := c.epochOf(seq); got != want {
			t.Errorf("epochOf(%d) = %d, want %d", seq, got, want)
		}
	}
}

// TestReadSetConflictSemantics: only younger overlapping reads conflict.
func TestReadSetConflictSemantics(t *testing.T) {
	c := propCore(t)
	c.readSet = []readRec{
		{seq: 5, addr: 100, size: 8},
		{seq: 20, addr: 100, size: 8},
		{seq: 30, addr: 200, size: 4},
	}
	if c.readSetConflict(10, 100, 8) != true {
		t.Error("younger overlap not detected")
	}
	if c.readSetConflict(25, 100, 8) != false {
		t.Error("older read flagged")
	}
	if c.readSetConflict(10, 204, 1) != false {
		t.Error("non-overlap flagged (edge)")
	}
	if c.readSetConflict(10, 203, 1) != true {
		t.Error("1-byte overlap missed")
	}
	if c.readSetConflict(10, 96, 4) != false {
		t.Error("adjacent-below flagged")
	}
}

// TestOldestUnresolvedSeq considers both the DQ and pending results.
func TestOldestUnresolvedSeq(t *testing.T) {
	c := propCore(t)
	c.seq = 100
	if got := c.oldestUnresolvedSeq(); got != 100 {
		t.Errorf("empty = %d", got)
	}
	_, e := c.dqAppend()
	e.seq = 42
	if got := c.oldestUnresolvedSeq(); got != 42 {
		t.Errorf("DQ only: got %d, want 42", got)
	}
	c.pushPend(pendingResult{seq: 50})
	c.pushPend(pendingResult{seq: 17})
	if got := c.oldestUnresolvedSeq(); got != 17 {
		t.Errorf("got %d, want 17", got)
	}
}

// TestSSBCapacityRespected: ssbInsert refuses beyond capacity and with
// zero capacity.
func TestSSBCapacityRespected(t *testing.T) {
	c := propCore(t)
	c.cfg.SSBSize = 2
	if !c.ssbInsert(ssbEntry{seq: 1}) || !c.ssbInsert(ssbEntry{seq: 2}) {
		t.Fatal("inserts under capacity failed")
	}
	if c.ssbInsert(ssbEntry{seq: 3}) {
		t.Error("insert over capacity succeeded")
	}
	c.cfg.SSBSize = 0
	c.ssb = nil
	if c.ssbInsert(ssbEntry{seq: 1}) {
		t.Error("insert with zero capacity succeeded")
	}
}

// TestCheckpointLimitRespected: takeCheckpoint never exceeds the
// configured count.
func TestCheckpointLimitRespected(t *testing.T) {
	c := propCore(t)
	c.cfg.Checkpoints = 3
	for i := 0; i < 10; i++ {
		c.takeCheckpoint(uint64(i))
	}
	if len(c.ckpts) != 3 {
		t.Errorf("checkpoints = %d", len(c.ckpts))
	}
	if c.stats.CheckpointsTaken != 3 {
		t.Errorf("stat = %d", c.stats.CheckpointsTaken)
	}
}

// TestDeliverWritesThroughLastWriter: delivery respects the last-writer
// discipline in both live state and checkpoints.
func TestDeliverWritesThroughLastWriter(t *testing.T) {
	c := propCore(t)
	c.markNA(5, 40)
	c.takeCheckpoint(0x100) // snapshot has r5 NA with writer 40
	// A younger instruction overwrites r5 in live state.
	c.write(5, 99, 0, 50)
	// Delivery of seq 40 must not clobber live r5, but must heal the
	// checkpoint copy.
	c.deliverRF(40, 5, 123, 7)
	if c.regs[5] != 99 || c.na[5] {
		t.Errorf("live r5 = %d na=%v", c.regs[5], c.na[5])
	}
	ck := &c.ckpts[0]
	if ck.na[5] || ck.regs[5] != 123 {
		t.Errorf("checkpoint r5 = %d na=%v", ck.regs[5], ck.na[5])
	}
}

// TestIsaQuickRandomInstructionsNeverPanic feeds the decoder random
// bytes through the SST frontend path indirectly: decoding arbitrary
// words either fails cleanly or produces a valid instruction.
func TestIsaQuickRandomInstructionsNeverPanic(t *testing.T) {
	f := func(w uint64) bool {
		in, err := isa.DecodeWord(w)
		if err != nil {
			return true
		}
		_ = in.String()
		n := in.NumSrcs()
		return n >= 0 && n <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
