// Package bpred implements the branch prediction substrate shared by all
// core models: a selectable direction predictor (gshare or TAGE-lite), a
// branch target buffer, and a return-address stack. SST additionally
// relies on the predictor for branches whose operands are not available
// (deferred branches); a wrong prediction there is discovered at replay
// time and costs a checkpoint rollback, so predictor quality directly
// bounds speculation depth.
//
// Training rule for deferred control flow: a deferred branch or jalr is
// PREDICTED at fetch time but TRAINED at replay resolution (see
// TrainDeferredDir/TrainDeferredTarget), with whatever global history the
// predictor holds at that point. Training is therefore resolution-order,
// not fetch-order — both predictor kinds re-derive their table indices
// from the current history at update time, and a rollback restores the
// fetch-path history through History/SetHistory, which cover the
// predictor's complete history state for both kinds.
//
// Multithreaded sharing: SMT strands and CMP cores obtain their
// predictors through NewGroup, which implements three policies — private
// per-strand tables (SharePartitioned), one table set indexed identically
// by every strand (ShareShared), and one table set with a per-strand
// index hash (ShareHashed). History, the RAS and statistics are always
// per strand; only the large direction/target tables are policy-managed.
// Strand 0's hash salt is zero, so with a single strand all three
// policies are bit-identical — sharing is unobservable without a second
// thread.
package bpred

import (
	"fmt"
	"slices"

	"rocksim/internal/obs"
)

// Kind selects the direction predictor algorithm.
type Kind int

// Direction predictor kinds. The zero value is gshare, the seed
// predictor, so existing configurations keep their exact behavior.
const (
	Gshare Kind = iota
	TAGE
)

var kindNames = [...]string{Gshare: "gshare", TAGE: "tage"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindByName parses a Kind from its String form.
func KindByName(s string) (Kind, error) {
	if i := slices.Index(kindNames[:], s); i >= 0 {
		return Kind(i), nil
	}
	return 0, fmt.Errorf("bpred: unknown predictor kind %q", s)
}

// MarshalText encodes the kind by name, so options on the wire and in
// keys read "tage", not a number. An unknown kind is an error: it would
// run as gshare under a key of its own.
func (k Kind) MarshalText() ([]byte, error) {
	_, err := KindByName(k.String())
	return []byte(k.String()), err
}

// UnmarshalText decodes a kind name (see KindByName).
func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = KindByName(string(b))
	return err
}

// ShareMode selects how a group of hardware strands (SMT threads, CMP
// cores) shares predictor table state. See NewGroup.
type ShareMode int

// Share modes. The zero value is per-strand private tables, the seed
// behavior.
const (
	// SharePartitioned gives every strand its own tables.
	SharePartitioned ShareMode = iota
	// ShareShared indexes one table set identically from every strand:
	// maximum capacity per strand, maximum cross-strand interference.
	ShareShared
	// ShareHashed shares one table set but XORs a per-strand salt into
	// every index, spreading strands across the shared capacity so
	// same-pc branches in different strands rarely collide.
	ShareHashed
)

var shareNames = [...]string{SharePartitioned: "part", ShareShared: "shared", ShareHashed: "hashed"}

func (m ShareMode) String() string {
	if m >= 0 && int(m) < len(shareNames) {
		return shareNames[m]
	}
	return fmt.Sprintf("share(%d)", int(m))
}

// ShareModeByName parses a ShareMode from its String form.
func ShareModeByName(s string) (ShareMode, error) {
	if i := slices.Index(shareNames[:], s); i >= 0 {
		return ShareMode(i), nil
	}
	return 0, fmt.Errorf("bpred: unknown share mode %q", s)
}

// MarshalText encodes the share mode by name. An unknown mode is an
// error: it would run as another mode under a key of its own.
func (m ShareMode) MarshalText() ([]byte, error) {
	_, err := ShareModeByName(m.String())
	return []byte(m.String()), err
}

// UnmarshalText decodes a share-mode name (see ShareModeByName).
func (m *ShareMode) UnmarshalText(b []byte) (err error) {
	*m, err = ShareModeByName(string(b))
	return err
}

// Config sizes the predictor structures.
type Config struct {
	// Kind selects the direction predictor algorithm (gshare or TAGE).
	Kind Kind
	// Share selects the multi-strand table sharing policy (see NewGroup).
	Share ShareMode
	// GshareBits is log2 of the pattern history table size. Under TAGE
	// the same table serves as the pc-indexed base bimodal predictor.
	GshareBits int
	// BTBEntries is the number of direct-mapped BTB entries.
	BTBEntries int
	// RASDepth is the return-address stack depth.
	RASDepth int
	// TageTables is the number of tagged geometric-history tables (1-6).
	TageTables int
	// TageTableBits is log2 of each tagged table's entry count.
	TageTableBits int
	// TageTagBits is the partial tag width stored per tagged entry.
	TageTagBits int
}

// DefaultConfig returns a 2009-era predictor: 16K-entry gshare,
// 2K-entry BTB, 8-deep RAS. The TAGE sizing (4 tagged 1K-entry tables
// with 9-bit tags over an 8/16/32/64-bit geometric history series) is
// filled in so flipping Kind alone yields a comparable-budget predictor.
func DefaultConfig() Config {
	return Config{
		Kind:          Gshare,
		Share:         SharePartitioned,
		GshareBits:    14,
		BTBEntries:    2048,
		RASDepth:      8,
		TageTables:    4,
		TageTableBits: 10,
		TageTagBits:   9,
	}
}

// withDefaults fills unset sizing fields, exactly as New always has.
func (c Config) withDefaults() Config {
	if c.GshareBits <= 0 {
		c.GshareBits = 14
	}
	if c.BTBEntries <= 0 {
		c.BTBEntries = 2048
	}
	if c.RASDepth <= 0 {
		c.RASDepth = 8
	}
	if c.TageTables <= 0 {
		c.TageTables = 4
	}
	if c.TageTables > 6 {
		c.TageTables = 6
	}
	if c.TageTableBits <= 0 {
		c.TageTableBits = 10
	}
	if c.TageTagBits <= 0 {
		c.TageTagBits = 9
	}
	if c.TageTagBits > 15 {
		c.TageTagBits = 15
	}
	return c
}

// Stats counts predictor events. It stays a flat comparable struct: the
// fast-forward purity check snapshots it and compares with != (see
// core/skip.go), so no field may be a slice, map or pointer.
type Stats struct {
	DirLookups    uint64
	DirMispredict uint64
	BTBLookups    uint64
	BTBMisses     uint64
	RASPushes     uint64
	RASPops       uint64
	// Deferred control flow trained at replay resolution (SST only).
	DeferredDirTrains    uint64
	DeferredTargetTrains uint64
	// TAGE internals: lookups answered by a tagged table (vs the base
	// bimodal), entries allocated on mispredict, allocations that found
	// no victim (and aged the candidates instead), decay sweeps.
	TageProviderHits uint64
	TageAllocs       uint64
	TageAllocFails   uint64
	TageDecays       uint64
}

// PublishObs publishes the predictor counters into r under bpred/*.
// No-op when r is nil.
func (s Stats) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("bpred/dir_lookups").Set(s.DirLookups)
	r.Counter("bpred/dir_mispredicts").Set(s.DirMispredict)
	r.Counter("bpred/btb_lookups").Set(s.BTBLookups)
	r.Counter("bpred/btb_misses").Set(s.BTBMisses)
	r.Counter("bpred/ras_pushes").Set(s.RASPushes)
	r.Counter("bpred/ras_pops").Set(s.RASPops)
	r.Counter("bpred/deferred_dir_trains").Set(s.DeferredDirTrains)
	r.Counter("bpred/deferred_target_trains").Set(s.DeferredTargetTrains)
	r.Counter("bpred/tage_provider_hits").Set(s.TageProviderHits)
	r.Counter("bpred/tage_allocs").Set(s.TageAllocs)
	r.Counter("bpred/tage_alloc_fails").Set(s.TageAllocFails)
	r.Counter("bpred/tage_decays").Set(s.TageDecays)
}

// tageDecayPeriod is the deterministic useful-bit aging interval: every
// this many direction updates through one table set, all useful counters
// are halved, so entries that stopped earning usefulness become
// allocation victims again as the branch working set drifts.
const tageDecayPeriod = 1 << 18

// tables is the table state a sharing group may pool: the PHT (gshare
// pattern table / TAGE base bimodal), the tagged geometric-history
// tables, and the BTB. Global history, the RAS and Stats live in the
// per-strand Predictor — real SMT hardware keeps those private too.
type tables struct {
	pht      []uint8 // 2-bit saturating counters
	btb      []btbEntry
	tage     [][]tageEntry // nil unless Kind == TAGE
	histLens []int         // geometric history length per tagged table
	updates  uint64        // direction updates, drives useful-bit decay
	sharers  uint64        // strands indexing this table set (1 unless pooled)
	writes   uint64        // updates that changed an entry's value
}

// tageEntry is one tagged-table slot: a partial tag, a 3-bit signed
// direction counter (>= 4 predicts taken) and a 2-bit useful counter
// guarding it from reallocation.
type tageEntry struct {
	tag uint16
	ctr uint8
	u   uint8
}

func newTables(cfg Config) *tables {
	t := &tables{
		pht: make([]uint8, 1<<cfg.GshareBits),
		btb: make([]btbEntry, cfg.BTBEntries),
	}
	// Weakly taken initial state.
	for i := range t.pht {
		t.pht[i] = 2
	}
	if cfg.Kind == TAGE {
		t.tage = make([][]tageEntry, cfg.TageTables)
		t.histLens = make([]int, cfg.TageTables)
		for i := range t.tage {
			t.tage[i] = make([]tageEntry, 1<<cfg.TageTableBits)
			// Geometric series ending at the full 64-bit history window:
			// 4 tables give 8/16/32/64. Longer histories live in
			// higher-numbered tables.
			l := 64 >> (cfg.TageTables - 1 - i)
			if l < 1 {
				l = 1
			}
			t.histLens[i] = l
		}
	}
	return t
}

func (t *tables) reset() {
	for i := range t.pht {
		t.pht[i] = 2
	}
	clear(t.btb)
	for _, tbl := range t.tage {
		clear(tbl)
	}
	t.updates = 0
	t.writes = 0
}

// Predictor combines direction, target and return-address prediction for
// one hardware strand. It is deliberately simple and deterministic:
// identical instruction streams produce identical predictions on every
// core model, so performance differences isolate the pipeline technique.
type Predictor struct {
	cfg   Config
	t     *tables
	ghr   uint64 // global history register, always per strand
	salt  uint64 // ShareHashed per-strand index salt (0 for strand 0)
	ras   []uint64
	rasSP int
	Stats Stats
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// New builds a single-strand predictor (a group of one, so every share
// mode collapses to private tables).
func New(cfg Config) *Predictor {
	return NewGroup(cfg, 1)[0]
}

// NewGroup builds the predictors for n hardware strands under cfg.Share:
// partitioned strands get private table sets, shared/hashed strands pool
// one. Strand 0's hash salt is zero so a group of one is bit-identical
// across all three modes.
func NewGroup(cfg Config, n int) []*Predictor {
	cfg = cfg.withDefaults()
	if n < 1 {
		n = 1
	}
	var pooled *tables
	if cfg.Share != SharePartitioned {
		pooled = newTables(cfg)
		pooled.sharers = uint64(n)
	}
	group := make([]*Predictor, n)
	for i := range group {
		t := pooled
		if t == nil {
			t = newTables(cfg)
			t.sharers = 1
		}
		p := &Predictor{cfg: cfg, t: t, ras: make([]uint64, cfg.RASDepth)}
		if cfg.Share == ShareHashed {
			p.salt = strandSalt(i)
		}
		group[i] = p
	}
	return group
}

// strandSalt spreads strand i's indices across shared tables. Strand 0
// salts with zero by construction: a lone strand must behave identically
// under every share mode (sharing is unobservable without a peer).
func strandSalt(i int) uint64 {
	if i == 0 {
		return 0
	}
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Config returns the predictor configuration (with defaults applied).
func (p *Predictor) Config() Config { return p.cfg }

// Reset returns the predictor to its freshly constructed state without
// reallocating: PHT counters back to weakly taken, tagged tables and
// useful bits cleared, history cleared, BTB and RAS emptied, statistics
// zeroed. Part of the pooled-simulator reset path (see sim.Instance).
// In a sharing group, resetting any strand resets the pooled tables;
// ResetGroup resets a whole group and clears them once.
func (p *Predictor) Reset() { ResetGroup([]*Predictor{p}) }

// ResetGroup resets every strand of a group built by NewGroup. The
// group either pools one table set or gives every strand its own, so a
// strand whose tables are strand 0's skips clearing them again. Only a
// strand's configuration, tables, salt and RAS storage outlive a run.
func ResetGroup(group []*Predictor) {
	for i, p := range group {
		if i == 0 || p.t != group[0].t {
			p.t.reset()
		}
		clear(p.ras)
		*p = Predictor{cfg: p.cfg, t: p.t, salt: p.salt, ras: p.ras}
	}
}

// gshareIndex is the classic gshare hash of pc against the full global
// history (plus the strand salt under ShareHashed).
func (p *Predictor) gshareIndex(pc uint64) uint64 {
	mask := uint64(len(p.t.pht) - 1)
	return ((pc >> 3) ^ p.ghr ^ p.salt) & mask
}

// baseIndex indexes TAGE's base bimodal: pc only, no history — the
// tagged tables own all history correlation.
func (p *Predictor) baseIndex(pc uint64) uint64 {
	mask := uint64(len(p.t.pht) - 1)
	return ((pc >> 3) ^ p.salt) & mask
}

// foldHistory compresses the low histLen bits of the history register
// into width bits by XOR-folding successive chunks. Pure function of its
// arguments: identical (history, lengths) always produce identical
// indices and tags, on any strand of any group.
func foldHistory(ghr uint64, histLen, width int) uint64 {
	h := ghr
	if histLen < 64 {
		h &= (uint64(1) << histLen) - 1
	}
	mask := (uint64(1) << width) - 1
	var f uint64
	for ; h != 0; h >>= width {
		f ^= h & mask
	}
	return f
}

// tageIndex indexes tagged table ti for pc under the current history.
func (p *Predictor) tageIndex(pc uint64, ti int) uint64 {
	bits := p.cfg.TageTableBits
	mask := (uint64(1) << bits) - 1
	h := foldHistory(p.ghr, p.t.histLens[ti], bits)
	return ((pc >> 3) ^ (pc >> (3 + uint(bits))) ^ h ^ p.salt ^ uint64(ti)) & mask
}

// tageTag computes table ti's partial tag for pc: two differently-sized
// history folds decorrelate the tag from the index, so entries that
// collide on an index slot still disagree on tags.
func (p *Predictor) tageTag(pc uint64, ti int) uint16 {
	tb := p.cfg.TageTagBits
	h1 := foldHistory(p.ghr, p.t.histLens[ti], tb)
	h2 := foldHistory(p.ghr, p.t.histLens[ti], tb-1)
	return uint16(((pc >> 3) ^ h1 ^ (h2 << 1)) & ((uint64(1) << tb) - 1))
}

// tageLookup finds the provider (the longest-history tagged table whose
// entry tag-matches pc under the current history) and the alternate (the
// next longest match). -1 denotes the base bimodal.
func (p *Predictor) tageLookup(pc uint64) (provider, alt int) {
	provider, alt = -1, -1
	for ti := len(p.t.tage) - 1; ti >= 0; ti-- {
		if p.t.tage[ti][p.tageIndex(pc, ti)].tag == p.tageTag(pc, ti) {
			if provider < 0 {
				provider = ti
			} else {
				alt = ti
				break
			}
		}
	}
	return provider, alt
}

// tablePred reads table ti's direction for pc (-1 = base bimodal).
func (p *Predictor) tablePred(pc uint64, ti int) bool {
	if ti < 0 {
		return p.t.pht[p.baseIndex(pc)] >= 2
	}
	return p.t.tage[ti][p.tageIndex(pc, ti)].ctr >= 4
}

// PredictDir predicts the direction of the conditional branch at pc.
func (p *Predictor) PredictDir(pc uint64) bool {
	p.Stats.DirLookups++
	if p.cfg.Kind == TAGE {
		provider, _ := p.tageLookup(pc)
		if provider >= 0 {
			p.Stats.TageProviderHits++
		}
		return p.tablePred(pc, provider)
	}
	return p.t.pht[p.gshareIndex(pc)] >= 2
}

// UpdateDir trains the direction predictor with the branch outcome and
// shifts the outcome into this strand's global history. mispredicted is
// recorded for stats only. Both kinds re-derive their indices from the
// CURRENT history: for SST's deferred branches (trained at replay, see
// TrainDeferredDir) that is resolution-order history by design.
func (p *Predictor) UpdateDir(pc uint64, taken, mispredicted bool) {
	if p.cfg.Kind == TAGE {
		p.tageUpdate(pc, taken)
	} else {
		p.t.setPHT(p.gshareIndex(pc), taken)
	}
	p.ghr = (p.ghr << 1) | b2u(taken)
	if mispredicted {
		p.Stats.DirMispredict++
	}
}

// tageUpdate is the TAGE training step: train the provider, steer its
// useful bit when it disagreed with the alternate, allocate a
// longer-history entry on a provider misprediction, and age useful bits
// on a fixed deterministic period. No randomized allocation — identical
// update streams always produce identical tables.
func (p *Predictor) tageUpdate(pc uint64, taken bool) {
	t := p.t
	provider, alt := p.tageLookup(pc)
	provPred := p.tablePred(pc, provider)
	if provider >= 0 {
		altPred := p.tablePred(pc, alt)
		e := &t.tage[provider][p.tageIndex(pc, provider)]
		was := *e
		e.ctr = sat3(e.ctr, taken)
		if provPred != altPred {
			// The provider distinguished itself from its fallback:
			// usefulness earned if right, revoked if wrong.
			if provPred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		if *e != was {
			t.writes++
		}
	} else {
		t.setPHT(p.baseIndex(pc), taken)
	}
	if provPred != taken && provider < len(t.tage)-1 {
		// Mispredicted: claim one not-useful entry in the shortest
		// longer-history table; if all are defended, age them all so a
		// persistent mispredict eventually wins a slot.
		allocated := false
		for ti := provider + 1; ti < len(t.tage); ti++ {
			e := &t.tage[ti][p.tageIndex(pc, ti)]
			if e.u == 0 {
				*e = tageEntry{tag: p.tageTag(pc, ti), ctr: weak3(taken)}
				t.writes++
				p.Stats.TageAllocs++
				allocated = true
				break
			}
		}
		if !allocated {
			for ti := provider + 1; ti < len(t.tage); ti++ {
				if e := &t.tage[ti][p.tageIndex(pc, ti)]; e.u > 0 {
					e.u--
					t.writes++
				}
			}
			p.Stats.TageAllocFails++
		}
	}
	t.updates++
	if t.updates%tageDecayPeriod == 0 {
		for _, tbl := range t.tage {
			for i := range tbl {
				tbl[i].u >>= 1
			}
		}
		t.writes++
		p.Stats.TageDecays++
	}
}

// TrainDeferredDir trains on a deferred branch's replay-time resolution.
// SST discovers a deferred branch's real outcome only when the deferred
// queue replays it, so the predictor trains at RESOLUTION order with the
// history it holds then — never retroactively at fetch order. A
// mispredict here also rolls the core back, which restores the
// checkpoint history via SetHistory; the training shift below lands
// before that restore and is deliberately kept (the outcome is
// architecturally known even though the path is squashed).
func (p *Predictor) TrainDeferredDir(pc uint64, taken, mispredicted bool) {
	p.Stats.DeferredDirTrains++
	p.UpdateDir(pc, taken, mispredicted)
}

// TrainDeferredTarget trains the BTB on a deferred jalr's replay-time
// resolved target (see TrainDeferredDir for the resolution-order rule).
func (p *Predictor) TrainDeferredTarget(pc, target uint64) {
	p.Stats.DeferredTargetTrains++
	p.UpdateTarget(pc, target)
}

// History returns the current global history register, so speculative
// cores can checkpoint and restore it on rollback. For both predictor
// kinds this is the COMPLETE history state: TAGE folds the register into
// per-table indices on the fly, so SetHistory fully restores the
// fetch-path history after a rollback.
func (p *Predictor) History() uint64 { return p.ghr }

// SetHistory restores a previously captured global history register.
func (p *Predictor) SetHistory(h uint64) { p.ghr = h }

// PredictTarget predicts the target of an indirect jump at pc. ok is
// false on a BTB miss (the frontend then stalls until resolution).
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	p.Stats.BTBLookups++
	e := &p.t.btb[p.btbIndex(pc)]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	p.Stats.BTBMisses++
	return 0, false
}

// UpdateTarget trains the BTB with the resolved target of the indirect
// jump at pc.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	e := &p.t.btb[p.btbIndex(pc)]
	if v := (btbEntry{tag: pc, target: target, valid: true}); *e != v {
		*e = v
		p.t.writes++
	}
}

func (p *Predictor) btbIndex(pc uint64) uint64 {
	return ((pc >> 3) ^ p.salt) % uint64(len(p.t.btb))
}

// PushReturn records a call's return address on the RAS.
func (p *Predictor) PushReturn(addr uint64) {
	p.ras[p.rasSP%len(p.ras)] = addr
	p.rasSP++
	p.Stats.RASPushes++
}

// PopReturn predicts a return target from the RAS. ok is false when the
// stack is empty.
func (p *Predictor) PopReturn() (addr uint64, ok bool) {
	if p.rasSP == 0 {
		return 0, false
	}
	p.rasSP--
	p.Stats.RASPops++
	return p.ras[p.rasSP%len(p.ras)], true
}

// setPHT trains the 2-bit counter at idx toward the outcome.
func (t *tables) setPHT(idx uint64, taken bool) {
	if v := sat2(t.pht[idx], taken); v != t.pht[idx] {
		t.pht[idx] = v
		t.writes++
	}
}

// TableWrites counts the updates, through this strand's table set by
// any strand sharing it, that changed a table entry's value: a
// direction counter, a useful bit, a tagged allocation, a decay sweep or
// a BTB entry. The SST core's scout period jump requires it to hold
// still: a period whose updates only re-write saturated values predicts
// the same way every time it repeats.
func (p *Predictor) TableWrites() uint64 { return p.t.writes }

// HistoryMask returns the history-register bits the direction predictor
// reads: the gshare index width, or every bit up to TAGE's longest
// geometric history. Bits above it shift out unread.
func (p *Predictor) HistoryMask() uint64 {
	if p.cfg.Kind != TAGE {
		return uint64(len(p.t.pht) - 1)
	}
	if l := p.t.histLens[len(p.t.histLens)-1]; l < 64 {
		return uint64(1)<<l - 1
	}
	return ^uint64(0)
}

// DecayBudget returns how many more direction updates this strand may
// make before TAGE's useful-bit decay could fire, when every strand
// sharing the table set is allowed as many (no limit under gshare).
func (p *Predictor) DecayBudget() uint64 {
	if p.cfg.Kind != TAGE {
		return ^uint64(0)
	}
	left := tageDecayPeriod - p.t.updates%tageDecayPeriod - 1
	return left / p.t.sharers
}

// CreditDirUpdates advances TAGE's decay tick by n direction updates
// that changed no table entry, as stepping them would. The caller keeps
// n within DecayBudget; gshare keeps no tick.
func (p *Predictor) CreditDirUpdates(n uint64) {
	if p.cfg.Kind == TAGE {
		p.t.updates += n
	}
}

// sat2 moves a 2-bit saturating counter toward the outcome.
func sat2(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

// sat3 moves a 3-bit saturating counter toward the outcome.
func sat3(c uint8, taken bool) uint8 {
	if taken {
		if c < 7 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

// weak3 is the weak 3-bit counter state biased toward the outcome, the
// state a freshly allocated TAGE entry starts in.
func weak3(taken bool) uint8 {
	if taken {
		return 4
	}
	return 3
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
