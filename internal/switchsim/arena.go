package switchsim

import "tango/internal/flowtable"

// arena.go is the paged entry arena: every tracked rule's bookkeeping
// record lives in fixed-size pages of entries, addressed by int32 handles
// instead of pointers. Handle 0 is reserved ("no entry"), so the zero value
// of flowtable.Rule.Ext means untracked. Freed slots go on a free list and
// are reused by later adds — across delete, timeout expiry, and Reset — so a
// long-running switch's arena footprint is bounded by its peak live rule
// count, not its cumulative churn.
//
// The payoff is cache locality on the two profiled hot paths:
//
//   - classifyExact resolves frame-key → handle through an open-addressing
//     table (flowtable.KeyIndex) and lands directly on the record;
//   - the eviction/promotion heaps (evictindex.go) become []int32 of
//     handles, so sifts write only integers — no GC pointer-write barriers,
//     which dominated allocation-phase samples during demote churn.
//
// Growth adds a page and never moves one: it copies nothing, leaves no
// garbage, and an *entry stays valid while its slot is allocated.

// ruleSlabSize is the rule-slab allocation unit. Rules need stable addresses
// (flow tables hold *Rule), so they are slab-allocated — slabs are never
// reallocated, only retired to a pool on Reset.
const ruleSlabSize = 256

// Arena pages hold 256 entries: 256 × 56 B is exactly one 14 KiB allocation
// size class, so pages waste no tail bytes and a small switch pays for one.
const (
	entryPageShift = 8
	entryPageSize  = 1 << entryPageShift
	entryPageMask  = entryPageSize - 1
)

// entryPage is one arena page.
type entryPage [entryPageSize]entry

// entryArena is the paged entry store: handle h lives in slot
// h&entryPageMask of page h>>entryPageShift.
type entryArena struct {
	pages []*entryPage
	// n counts the slots handed out so far, the reserved slot 0 included.
	n int32
}

// at resolves an allocated handle to its record without validity checks.
func (a *entryArena) at(h int32) *entry {
	return &a.pages[uint32(h)>>entryPageShift][uint32(h)&entryPageMask]
}

// noHeap is the heapIdx sentinel for "in neither heap".
const noHeap int32 = -1

// entryAt resolves a handle to its arena record. Handle 0 and out-of-range
// or freed handles resolve to nil.
func (s *Switch) entryAt(h int32) *entry {
	if h <= 0 || h >= s.arena.n {
		return nil
	}
	if e := s.arena.at(h); e.self == h {
		return e
	}
	// Freed slots zero their self field, so a stale handle — one recorded
	// before the slot was returned to the free list — resolves to nil
	// instead of someone else's bookkeeping.
	return nil
}

// entryOf resolves a tracked rule to its arena record via the rule's Ext
// handle — the hot-path replacement for a map lookup or interface assertion.
func (s *Switch) entryOf(r *flowtable.Rule) *entry {
	return s.entryAt(r.Ext)
}

// allocEntry hands out a fresh arena record, reusing a free-listed slot when
// one exists and opening a new one otherwise; a microflow switch's
// kernel-key lists grow with the arena.
func (s *Switch) allocEntry() (int32, *entry) {
	var h int32
	if n := len(s.freeEnts); n > 0 {
		h = s.freeEnts[n-1]
		s.freeEnts = s.freeEnts[:n-1]
	} else {
		if s.arena.n == 0 {
			s.arena.n = 1 // slot 0 is the reserved nil handle
		}
		h = s.arena.n
		if int(h>>entryPageShift) == len(s.arena.pages) {
			s.arena.pages = append(s.arena.pages, new(entryPage))
		}
		s.arena.n++
		for s.kernel != nil && len(s.kernelKeys) < int(s.arena.n) {
			s.kernelKeys = append(s.kernelKeys, nil)
		}
	}
	e := s.arena.at(h)
	*e = entry{self: h, heapIdx: noHeap, timedIdx: noTimed}
	return h, e
}

// freeEntry returns e's slot to the free list. The slot's self field is
// zeroed so stale handles fail entryAt's identity check. Timed entries
// swap-remove themselves from the expiry list first, keeping the invariant
// that timedEnts holds only live handles.
func (s *Switch) freeEntry(e *entry) {
	s.untimeEntry(e)
	h := e.self
	*e = entry{}
	s.freeEnts = append(s.freeEnts, h)
}

// newRule hands out a zeroed rule: from the rule free list when delete or
// expiry recycled one, from the current slab otherwise. Slabs drawn from the
// reset pool are reused in place.
func (s *Switch) newRule() *flowtable.Rule {
	if n := len(s.freeRules); n > 0 {
		r := s.freeRules[n-1]
		s.freeRules = s.freeRules[:n-1]
		*r = flowtable.Rule{}
		return r
	}
	if s.ruleUsed == len(s.ruleChunk) {
		if n := len(s.slabPool); n > 0 {
			s.ruleChunk = s.slabPool[n-1]
			s.slabPool = s.slabPool[:n-1]
		} else {
			s.ruleChunk = make([]flowtable.Rule, ruleSlabSize)
		}
		s.liveSlabs = append(s.liveSlabs, s.ruleChunk)
		s.ruleUsed = 0
	}
	r := &s.ruleChunk[s.ruleUsed]
	s.ruleUsed++
	*r = flowtable.Rule{}
	return r
}

// freeRule recycles a removed rule's slab slot for the next add.
func (s *Switch) freeRule(r *flowtable.Rule) {
	s.freeRules = append(s.freeRules, r)
}

// resetArena returns every arena slot to the free list and every rule slab
// to the reset pool, keeping all capacity — a long-running fleet that resets
// its switches between inference rounds reuses one arena instead of leaking
// one per reset. Free-list order is rebuilt descending so post-reset adds
// reuse handles in ascending order, keeping replays deterministic.
func (s *Switch) resetArena() {
	s.timedEnts = s.timedEnts[:0]
	s.freeEnts = s.freeEnts[:0]
	for h := s.arena.n - 1; h >= 1; h-- {
		*s.arena.at(h) = entry{}
		s.freeEnts = append(s.freeEnts, h)
	}
	for h, kk := range s.kernelKeys {
		s.kernelKeys[h] = kk[:0]
	}
	s.freeRules = s.freeRules[:0]
	s.slabPool = append(s.slabPool, s.liveSlabs...)
	s.liveSlabs = s.liveSlabs[:0]
	s.ruleChunk = nil
	s.ruleUsed = 0
}
