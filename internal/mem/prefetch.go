package mem

import (
	"fmt"
	"slices"
)

// PrefetchKind selects the hardware prefetcher attached to each L1D.
type PrefetchKind uint8

// Hardware prefetcher kinds.
const (
	PrefetchNone PrefetchKind = iota
	// PrefetchNextLine fetches line+1 on every demand miss.
	PrefetchNextLine
	// PrefetchStride detects per-PC constant strides and runs a few
	// lines ahead of the demand stream.
	PrefetchStride
)

var prefetchNames = [...]string{PrefetchNone: "none", PrefetchNextLine: "nextline", PrefetchStride: "stride"}

func (k PrefetchKind) String() string {
	if int(k) < len(prefetchNames) {
		return prefetchNames[k]
	}
	return fmt.Sprintf("prefetch(%d)", k)
}

// PrefetchKindByName parses a PrefetchKind from its String form.
func PrefetchKindByName(s string) (PrefetchKind, error) {
	if i := slices.Index(prefetchNames[:], s); i >= 0 {
		return PrefetchKind(i), nil
	}
	return 0, fmt.Errorf("mem: unknown prefetcher %q", s)
}

// MarshalText encodes the prefetcher by name. An unknown kind is an
// error: it would run as no prefetcher under a key of its own.
func (k PrefetchKind) MarshalText() ([]byte, error) {
	_, err := PrefetchKindByName(k.String())
	return []byte(k.String()), err
}

// UnmarshalText decodes a prefetcher name (see PrefetchKindByName).
func (k *PrefetchKind) UnmarshalText(b []byte) (err error) {
	*k, err = PrefetchKindByName(string(b))
	return err
}

// StridePrefetcherConfig sizes the stride prefetcher.
type StridePrefetcherConfig struct {
	Entries int // per-PC tracking entries (direct-mapped)
	Degree  int // prefetches issued per trained miss
	// MinConfidence is how many consecutive identical strides must be
	// observed before prefetching begins.
	MinConfidence int
}

// DefaultStrideConfig returns a modest 64-entry, degree-2 prefetcher.
func DefaultStrideConfig() StridePrefetcherConfig {
	return StridePrefetcherConfig{Entries: 64, Degree: 2, MinConfidence: 2}
}

type strideEntry struct {
	pc         uint64
	lastAddr   uint64
	stride     int64
	confidence int
	valid      bool
}

// stridePrefetcher is a classic reference-prediction table: it watches
// the (pc, addr) stream of demand loads and, once a pc shows a stable
// stride, prefetches degree lines ahead.
type stridePrefetcher struct {
	cfg     StridePrefetcherConfig
	entries []strideEntry
	// Stats
	Trained uint64
	Issued  uint64
}

func newStridePrefetcher(cfg StridePrefetcherConfig) *stridePrefetcher {
	if cfg.Entries <= 0 {
		cfg.Entries = 64
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	if cfg.MinConfidence <= 0 {
		cfg.MinConfidence = 2
	}
	return &stridePrefetcher{cfg: cfg, entries: make([]strideEntry, cfg.Entries)}
}

// observe trains on a demand access and returns the addresses to
// prefetch (nil when untrained or stride zero).
func (p *stridePrefetcher) observe(pc, addr uint64) []uint64 {
	e := &p.entries[(pc>>3)%uint64(len(p.entries))]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.confidence < p.cfg.MinConfidence {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
	}
	e.lastAddr = addr
	if e.confidence < p.cfg.MinConfidence || e.stride == 0 {
		return nil
	}
	p.Trained++
	out := make([]uint64, 0, p.cfg.Degree)
	next := int64(addr)
	for i := 0; i < p.cfg.Degree; i++ {
		next += e.stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	p.Issued += uint64(len(out))
	return out
}
