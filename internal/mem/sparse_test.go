package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseBasic(t *testing.T) {
	m := NewSparse()
	if got := m.Read(0x1234, 8); got != 0 {
		t.Errorf("fresh read = %d", got)
	}
	m.Write(0x1234, 8, 0xdeadbeefcafef00d)
	if got := m.Read(0x1234, 8); got != 0xdeadbeefcafef00d {
		t.Errorf("read = %#x", got)
	}
	// Partial reads see little-endian bytes.
	if got := m.Read(0x1234, 1); got != 0x0d {
		t.Errorf("byte read = %#x", got)
	}
	if got := m.Read(0x1238, 4); got != 0xdeadbeef {
		t.Errorf("hi-word read = %#x", got)
	}
}

// TestSparseReadWriteProperty: a write followed by a read of the same
// width and address returns the value truncated to the width, for any
// address including page-straddling ones.
func TestSparseReadWriteProperty(t *testing.T) {
	m := NewSparse()
	sizes := []int{1, 2, 4, 8}
	f := func(addr uint64, szIdx uint8, val uint64) bool {
		addr &= 0xffffff // keep the page map small
		size := sizes[szIdx%4]
		m.Write(addr, size, val)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestSparsePageStraddle(t *testing.T) {
	m := NewSparse()
	addr := uint64(pageSize - 3) // straddles first page boundary
	m.Write(addr, 8, 0x1122334455667788)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("straddle read = %#x", got)
	}
	// Byte-wise verification across the boundary.
	for i := 0; i < 8; i++ {
		want := uint64(0x1122334455667788 >> (8 * i) & 0xff)
		if got := m.Read(addr+uint64(i), 1); got != want {
			t.Errorf("byte %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestSparseBytes(t *testing.T) {
	m := NewSparse()
	src := make([]byte, 3*pageSize)
	r := rand.New(rand.NewSource(7))
	r.Read(src)
	m.WriteBytes(100, src)
	for i := range src {
		if got := m.Read(100+uint64(i), 1); got != uint64(src[i]) {
			t.Fatalf("byte %d: %#x != %#x", i, got, src[i])
		}
	}
	// Reads beyond written data are zero.
	for i := 0; i < 16; i++ {
		if m.Read(100+uint64(len(src)+i), 1) != 0 {
			t.Fatal("unwritten bytes nonzero")
		}
	}
}

func TestSparseCloneEqualDiff(t *testing.T) {
	m := NewSparse()
	m.Write(0x1000, 8, 42)
	m.Write(0x200000, 4, 7)
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone not equal")
	}
	c.Write(0x1000, 1, 43)
	if m.Equal(c) {
		t.Error("modified clone still equal")
	}
	diffs := m.Diff(c, 10)
	if len(diffs) != 1 || diffs[0] != 0x1000 {
		t.Errorf("diffs = %v", diffs)
	}
	// All-zero page vs absent page compare equal.
	d := m.Clone()
	d.Write(0x900000, 8, 0) // allocates a zero page
	if !m.Equal(d) || !d.Equal(m) {
		t.Error("zero page should equal absent page")
	}
}
