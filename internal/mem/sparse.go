// Package mem provides the memory substrate shared by every core model:
// a functional sparse byte-addressable memory (architectural contents)
// and a timing model of the cache/DRAM hierarchy (latencies, MSHRs, bank
// and port contention). The two are deliberately separate: functional
// correctness never depends on the timing model, which is what lets the
// speculative cores be validated against the pure ISA emulator.
package mem

import "encoding/binary"

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// PageBits and PageSize expose the functional memory's page geometry for
// callers that cache page pointers (see PageFor).
const (
	PageBits = pageBits
	PageSize = pageSize
)

// Sparse is a paged, zero-initialized functional memory. It implements
// the isa.Memory interface. Reads of never-written pages return zero
// without allocating.
type Sparse struct {
	pages map[uint64]*[pageSize]byte

	// pcache is a small direct-mapped page-pointer cache in front of the
	// page map, keeping the map lookup off the per-access path. Pages are
	// mutated in place and never freed or replaced, so a cached pointer
	// can never go stale; never-written (absent) pages are simply not
	// cached, and allocation fills the slot.
	pcache [pcacheSize]pcacheEntry
}

const pcacheSize = 64

type pcacheEntry struct {
	num uint64
	p   *[pageSize]byte
}

// NewSparse returns an empty functional memory.
func NewSparse() *Sparse {
	return &Sparse{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Sparse) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageBits
	e := &m.pcache[pn&(pcacheSize-1)]
	if e.p != nil && e.num == pn {
		return e.p
	}
	p := m.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	e.num, e.p = pn, p
	return p
}

// PageFor returns the backing page containing addr, or nil if that page
// has never been written. Pages are mutated in place and never replaced
// or freed, so a non-nil pointer stays valid — and live-updated by
// subsequent Writes — for the lifetime of the memory; hot readers (the
// fetch stage) cache it to bypass the page map.
func (m *Sparse) PageFor(addr uint64) *[PageSize]byte {
	return m.page(addr, false)
}

// Read returns the unsigned little-endian value of size bytes at addr.
// Size must be 1, 2, 4 or 8. Accesses may straddle page boundaries.
func (m *Sparse) Read(addr uint64, size int) uint64 {
	if off := addr & pageMask; off+uint64(size) <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.readByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of val at addr, little-endian.
func (m *Sparse) Write(addr uint64, size int, val uint64) {
	if off := addr & pageMask; off+uint64(size) <= pageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(val)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.writeByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

func (m *Sparse) readByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

func (m *Sparse) writeByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// WriteBytes copies src into memory starting at addr.
func (m *Sparse) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := pageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		copy(m.page(addr, true)[off:], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// Clone returns a deep copy of the memory. Used by tests to run several
// core models over identical initial images.
func (m *Sparse) Clone() *Sparse {
	c := NewSparse()
	for pn, p := range m.pages {
		cp := new([pageSize]byte)
		*cp = *p
		c.pages[pn] = cp
	}
	return c
}

// Equal reports whether two memories hold identical contents. Pages that
// are all-zero on one side and absent on the other compare equal.
func (m *Sparse) Equal(o *Sparse) bool {
	return m.coveredBy(o) && o.coveredBy(m)
}

func (m *Sparse) coveredBy(o *Sparse) bool {
	for pn, p := range m.pages {
		q := o.pages[pn]
		if q == nil {
			if *p != ([pageSize]byte{}) {
				return false
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	return true
}

// Diff returns up to max addresses at which the two memories differ.
func (m *Sparse) Diff(o *Sparse, max int) []uint64 {
	var out []uint64
	seen := make(map[uint64]bool)
	check := func(a, b *Sparse) {
		for pn, p := range a.pages {
			if seen[pn] {
				continue
			}
			seen[pn] = true
			var q [pageSize]byte
			if qp := b.pages[pn]; qp != nil {
				q = *qp
			}
			for i := 0; i < pageSize && len(out) < max; i++ {
				if p[i] != q[i] {
					out = append(out, pn<<pageBits|uint64(i))
				}
			}
			if len(out) >= max {
				return
			}
		}
	}
	check(m, o)
	check(o, m)
	return out
}
