package mem

import (
	"fmt"

	"rocksim/internal/obs"
)

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int // total capacity
	Ways       int
	LineBytes  int
	HitLatency int // cycles from access to data for a hit
	MSHRs      int // outstanding-miss registers (0 = blocking cache)
}

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("mem: cache %q: hit latency must be >= 1", c.Name)
	}
	return nil
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
	Invals     uint64 // coherence invalidations received
}

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (s CacheStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// PublishObs publishes the counters under name (e.g. "mem/l1d").
func (s CacheStats) PublishObs(r *obs.Registry, name string) {
	r.Counter(name + "/hits").Set(s.Hits)
	r.Counter(name + "/misses").Set(s.Misses)
	r.Counter(name + "/fills").Set(s.Fills)
	r.Counter(name + "/evictions").Set(s.Evictions)
	r.Counter(name + "/writebacks").Set(s.Writebacks)
	r.Counter(name + "/invals").Set(s.Invals)
}

type cacheLine struct {
	tag       uint64
	valid     bool
	dirty     bool
	lru       uint64 // last-touch stamp; larger = more recent
	fillReady uint64 // cycle at which the fill data actually arrives
}

// Cache is a set-associative cache tag store with LRU replacement.
// It tracks tags and dirty bits only; data always lives in the
// functional memory. fillReady models in-flight fills so that a line
// "present" in the tag array is not usable before its data arrives.
type Cache struct {
	cfg      CacheConfig
	lines    []cacheLine // set i is lines[i*Ways : (i+1)*Ways]
	setShift uint
	setMask  uint64
	stamp    uint64
	Stats    CacheStats
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	return &Cache{
		cfg:      cfg,
		lines:    make([]cacheLine, nsets*cfg.Ways),
		setShift: uint(log2(cfg.LineBytes)),
		setMask:  uint64(nsets - 1),
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) set(addr uint64) []cacheLine {
	return c.setAt(int((addr >> c.setShift) & c.setMask))
}

// setAt returns set i's ways.
func (c *Cache) setAt(i int) []cacheLine {
	w := c.cfg.Ways
	return c.lines[i*w : (i+1)*w : (i+1)*w]
}

// Lookup probes for addr. On a hit it refreshes LRU state, optionally
// sets the dirty bit, and returns the cycle the data is usable (at least
// now+HitLatency, later if the line's fill is still in flight).
func (c *Cache) Lookup(addr uint64, now uint64, markDirty bool) (ready uint64, hit bool) {
	tag := addr >> c.setShift
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			c.stamp++
			l.lru = c.stamp
			if markDirty {
				l.dirty = true
			}
			c.Stats.Hits++
			ready = now + uint64(c.cfg.HitLatency)
			if l.fillReady > ready {
				ready = l.fillReady
			}
			return ready, true
		}
	}
	c.Stats.Misses++
	return 0, false
}

// ProbeAt reports whether addr hits at cycle now and when its data is
// usable, counting the hit/miss but leaving all observable state — LRU
// order and the dirty bit — untouched. Secure-speculation modes use it
// so speculative probes leave no microarchitectural footprint.
func (c *Cache) ProbeAt(addr uint64, now uint64) (ready uint64, hit bool) {
	tag := addr >> c.setShift
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			c.Stats.Hits++
			ready = now + uint64(c.cfg.HitLatency)
			if l.fillReady > ready {
				ready = l.fillReady
			}
			return ready, true
		}
	}
	c.Stats.Misses++
	return 0, false
}

// Probe reports whether addr is present without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.setShift
	for i := range c.set(addr) {
		l := &c.set(addr)[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Stamp returns the LRU clock: it advances by one at every hit and fill.
func (c *Cache) Stamp() uint64 { return c.stamp }

// creditHits applies n more hits as a repeating access pattern would
// make them: a pattern that touches exactly the lines line(i) for i in
// [0, count), which hold every line it has touched since stamp since,
// and touches them again in the same order until n hits have passed.
// Each touched line's LRU stamp moves by n (its last touch repeats n
// stamps later), the clock by n and the hit count by n; every other line
// keeps its stamp. A line listed twice, or not touched since since, is
// left alone.
func (c *Cache) creditHits(count int, line func(i int) uint64, since, n uint64) {
	for i := range count {
		addr := line(i)
		tag := addr >> c.setShift
		set := c.set(addr)
		for w := range set {
			if l := &set[w]; l.valid && l.tag == tag && l.lru > since && l.lru <= c.stamp {
				l.lru += n
			}
		}
	}
	c.stamp += n
	c.Stats.Hits += n
}

// Eviction describes a victim line displaced by a fill.
type Eviction struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Fill installs the line containing addr, arriving at cycle ready.
// It returns the displaced victim, if any. If the line is already
// present (e.g. racing fills merged by an MSHR) the entry is refreshed.
func (c *Cache) Fill(addr uint64, ready uint64, dirty bool) Eviction {
	tag := addr >> c.setShift
	set := c.set(addr)
	c.stamp++
	// Already present: refresh.
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.stamp
			l.dirty = l.dirty || dirty
			if ready < l.fillReady {
				l.fillReady = ready
			}
			return Eviction{}
		}
	}
	// Choose victim: invalid way first, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ev := Eviction{}
	v := &set[victim]
	if v.valid {
		ev = Eviction{Addr: v.tag << c.setShift, Dirty: v.dirty, Valid: true}
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
		}
	}
	*v = cacheLine{tag: tag, valid: true, dirty: dirty, lru: c.stamp, fillReady: ready}
	c.Stats.Fills++
	return ev
}

// Invalidate removes the line containing addr if present, returning
// whether it was present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	tag := addr >> c.setShift
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			c.Stats.Invals++
			present, dirty = true, l.dirty
			*l = cacheLine{}
			return present, dirty
		}
	}
	return false, false
}
