package switchsim

// evictindex.go keeps the cache policy's eviction order incrementally
// instead of recomputing it. Policy-cache switches maintain two binary heaps
// over their entries, both ordered by Policy.Better (a total order — ties
// fall back to insertion sequence, so every heap root is unique and equals
// the corresponding full-scan result):
//
//   - the eviction index over TCAM residents, policy-worst entry at the
//     root (the next victim);
//   - the promotion index over TCAM-eligible software residents,
//     policy-best entry at the root (the next entry to refill a freed slot).
//
// Each entry carries a heap-position back-pointer, so membership moves
// (insert, evict, promote, delete) and attribute updates under touch-heavy
// policies (use time, traffic) cost O(log n) instead of the O(n) slice
// rebuild and rescan the naive scan paid on every insert into a full cache.
// The naive scans survive as worstTCAMEntryNaive/bestSoftwareEntryNaive,
// the reference implementations the differential test replays against.
//
// The heaps hold int32 arena handles, not pointers: a sift writes only
// integers into items and heapIdx fields, so the GC write barrier never
// runs on this path (it fires on pointer stores into heap objects — the
// dominant cost of the old []*entry sifts during demote churn).

// handleHeap is a binary heap of arena handles with back-pointers in the
// arena records. first reports whether a must sit closer to the root than b;
// with a total order the root is the unique extreme element. Every method
// takes the arena explicitly; the heap itself holds only handles.
type handleHeap struct {
	items []int32
	first func(a, b *entry) bool
}

func newHandleHeap(first func(a, b *entry) bool) *handleHeap {
	return &handleHeap{first: first}
}

func (h *handleHeap) len() int { return len(h.items) }

// peek returns the root entry, nil when empty.
func (h *handleHeap) peek(ar *entryArena) *entry {
	if len(h.items) == 0 {
		return nil
	}
	return ar.at(h.items[0])
}

// contains reports whether e currently sits in this heap. Back-pointers are
// shared across heaps, so the slot's occupant is checked, not just the index.
func (h *handleHeap) contains(e *entry) bool {
	i := e.heapIdx
	return i >= 0 && int(i) < len(h.items) && h.items[i] == e.self
}

// push adds e to the heap. e must not already be in any heap.
func (h *handleHeap) push(ar *entryArena, e *entry) {
	e.heapIdx = int32(len(h.items))
	h.items = append(h.items, e.self)
	h.up(ar, int(e.heapIdx))
}

// removeEntry takes e out of the heap, reporting whether it was a member.
func (h *handleHeap) removeEntry(ar *entryArena, e *entry) bool {
	if !h.contains(e) {
		return false
	}
	i := int(e.heapIdx)
	last := len(h.items) - 1
	if i != last {
		h.swap(ar, i, last)
	}
	h.items = h.items[:last]
	e.heapIdx = noHeap
	if i != last {
		if !h.down(ar, i) {
			h.up(ar, i)
		}
	}
	return true
}

// fix restores heap order around e after its attributes changed, reporting
// whether e was a member.
func (h *handleHeap) fix(ar *entryArena, e *entry) bool {
	if !h.contains(e) {
		return false
	}
	if !h.down(ar, int(e.heapIdx)) {
		h.up(ar, int(e.heapIdx))
	}
	return true
}

func (h *handleHeap) swap(ar *entryArena, i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	ar.at(h.items[i]).heapIdx = int32(i)
	ar.at(h.items[j]).heapIdx = int32(j)
}

// up sifts items[i] toward the root.
func (h *handleHeap) up(ar *entryArena, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.first(ar.at(h.items[i]), ar.at(h.items[parent])) {
			return
		}
		h.swap(ar, i, parent)
		i = parent
	}
}

// down sifts items[i] toward the leaves, reporting whether it moved.
func (h *handleHeap) down(ar *entryArena, i int) bool {
	moved := false
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		next := left
		if right := left + 1; right < n && h.first(ar.at(h.items[right]), ar.at(h.items[left])) {
			next = right
		}
		if !h.first(ar.at(h.items[next]), ar.at(h.items[i])) {
			return moved
		}
		h.swap(ar, i, next)
		i = next
		moved = true
	}
}

// initIndexes builds (or rebuilds, on Reset) the eviction and promotion
// indexes. Only policy-cache hierarchies pay for index maintenance; the
// other kinds never consult a cache policy.
func (s *Switch) initIndexes() {
	if c := s.profile.CachePolicy.Custom; c != nil && s.profile.Kind == ManagePolicyCache {
		// Custom policies (custompolicy.go) score through per-switch state
		// whose values shift for many entries on a single touch — per-entry
		// heap fixups cannot track that, so the indexes stay nil and every
		// victim/refill choice takes the naive scans through s.better.
		st := c.newState()
		s.customState = st
		s.better = st.better
		s.evictIdx, s.promoteIdx = nil, nil
		s.dynPolicy = false
		return
	}
	s.customState = nil
	// The compiled comparator serves every policy consumer, indexed or not.
	s.better = s.profile.CachePolicy.compile()
	if s.profile.Kind != ManagePolicyCache {
		return
	}
	better := s.better
	s.evictIdx = newHandleHeap(func(a, b *entry) bool { return better(b, a) })
	s.promoteIdx = newHandleHeap(better)
	policy := s.profile.CachePolicy
	s.dynPolicy = false
	for _, k := range policy.Keys {
		if k.Attr == AttrUseTime || k.Attr == AttrTraffic {
			s.dynPolicy = true
		}
	}
}

// trackTCAM registers e in the eviction index after it entered the TCAM.
func (s *Switch) trackTCAM(e *entry) {
	if s.evictIdx == nil {
		return
	}
	s.evictIdx.push(&s.arena, e)
	s.tel.idxPushes.Add(1)
}

// trackSoft registers e in the promotion index after it entered the
// software table; ineligible widths never become promotion candidates and
// stay out of the index, exactly as the naive scan skips them.
func (s *Switch) trackSoft(e *entry) {
	if s.promoteIdx == nil || !s.tcamAdmits(e.rule.Match.Width()) {
		return
	}
	s.promoteIdx.push(&s.arena, e)
	s.tel.idxPushes.Add(1)
}

// untrack removes e from whichever index holds it.
func (s *Switch) untrack(e *entry) {
	if s.evictIdx == nil || e == nil || e.heapIdx < 0 {
		return
	}
	if s.evictIdx.removeEntry(&s.arena, e) || s.promoteIdx.removeEntry(&s.arena, e) {
		s.tel.idxRemoves.Add(1)
	}
}

// indexFix restores index order around e after a policy attribute changed.
// Static policies (insertion/priority keys only) skip it: their comparisons
// read values fixed at insert time.
func (s *Switch) indexFix(e *entry) {
	if !s.dynPolicy || e == nil || e.heapIdx < 0 {
		return
	}
	if s.evictIdx.fix(&s.arena, e) || s.promoteIdx.fix(&s.arena, e) {
		s.tel.idxFixups.Add(1)
	}
}

// worstTCAMEntryNaive is the retained reference implementation of victim
// selection: scan the TCAM residents for the policy-worst. The differential
// test asserts the index always agrees with it. It compares through
// s.better — the compiled Policy.Better for LEX policies, and the
// only comparator that can see a custom policy's per-switch state.
func (s *Switch) worstTCAMEntryNaive() *entry {
	var worst *entry
	for _, r := range s.tcam.Rules() {
		e := s.entryOf(r)
		if e == nil {
			continue
		}
		if worst == nil || s.better(worst, e) {
			worst = e
		}
	}
	return worst
}

// bestSoftwareEntryNaive is the retained reference scan for promotion.
func (s *Switch) bestSoftwareEntryNaive() *entry {
	var best *entry
	for _, r := range s.software.Rules() {
		e := s.entryOf(r)
		if e == nil || !s.tcamAdmits(r.Match.Width()) {
			continue
		}
		if best == nil || s.better(e, best) {
			best = e
		}
	}
	return best
}
