package switchsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
)

// checkIndexes asserts that both heaps agree with the retained naive scans —
// same victim, same promotion candidate — and that their memberships are
// exactly the table residents the scans would consider. Called after every
// operation of the differential test, it is the property that makes the
// O(log n) index a pure optimization: Better is a total order, so the heap
// root and the full-scan extreme are the same unique entry.
func checkIndexes(t *testing.T, s *Switch) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()

	if got, want := s.worstTCAMEntry(), s.worstTCAMEntryNaive(); got != want {
		t.Fatalf("worstTCAMEntry: index picked %+v, naive scan picked %+v", got, want)
	}
	if got, want := s.bestSoftwareEntry(), s.bestSoftwareEntryNaive(); got != want {
		t.Fatalf("bestSoftwareEntry: index picked %+v, naive scan picked %+v", got, want)
	}

	inEvict := map[int32]bool{}
	for _, h := range s.evictIdx.items {
		e := s.entryAt(h)
		if e == nil {
			t.Fatalf("eviction index holds dead handle %d", h)
		}
		if !s.evictIdx.contains(e) {
			t.Fatalf("eviction index back-pointer broken for %+v", e)
		}
		inEvict[h] = true
	}
	for _, r := range s.tcam.Rules() {
		if e := s.entryOf(r); e != nil && !inEvict[e.self] {
			t.Fatalf("TCAM resident %v missing from eviction index", r.Match)
		}
	}
	if len(inEvict) != s.tcam.Len() {
		t.Fatalf("eviction index tracks %d entries, TCAM holds %d", len(inEvict), s.tcam.Len())
	}

	inPromote := map[int32]bool{}
	for _, h := range s.promoteIdx.items {
		e := s.entryAt(h)
		if e == nil {
			t.Fatalf("promotion index holds dead handle %d", h)
		}
		if !s.promoteIdx.contains(e) {
			t.Fatalf("promotion index back-pointer broken for %+v", e)
		}
		inPromote[h] = true
	}
	eligible := 0
	for _, r := range s.software.Rules() {
		e := s.entryOf(r)
		if e == nil || !s.tcamAdmits(r.Match.Width()) {
			continue
		}
		eligible++
		if !inPromote[e.self] {
			t.Fatalf("software resident %v missing from promotion index", r.Match)
		}
	}
	if len(inPromote) != eligible {
		t.Fatalf("promotion index tracks %d entries, software holds %d eligible", len(inPromote), eligible)
	}

	checkArena(t, s)
}

// checkArena asserts the arena bookkeeping invariants: every tracked
// rule resolves to a live arena record and vice versa (no leaks, no
// dangling handles), and every free-listed slot is dead — its zeroed self
// field makes stale handles resolve to nil.
func checkArena(t *testing.T, s *Switch) {
	t.Helper()
	tracked := 0
	s.forEachTracked(func(r *flowtable.Rule) {
		tracked++
		e := s.entryOf(r)
		if e == nil {
			t.Fatalf("tracked rule %v (handle %d) resolves to no arena record", r.Match, r.Ext)
		}
		if e.rule != r {
			t.Fatalf("arena record %d points at the wrong rule", e.self)
		}
	})
	if live := s.arenaLive(); live != tracked {
		t.Fatalf("arena holds %d live records, switch tracks %d rules", live, tracked)
	}
	onFree := map[int32]bool{}
	for _, h := range s.freeEnts {
		if onFree[h] {
			t.Fatalf("handle %d free-listed twice", h)
		}
		onFree[h] = true
		if h <= 0 || h >= s.arena.n {
			t.Fatalf("free list holds out-of-range handle %d", h)
		}
		if self := s.arena.at(h).self; self != 0 {
			t.Fatalf("free slot %d still claims self=%d; stale handles would resolve", h, self)
		}
		if s.entryAt(h) != nil {
			t.Fatalf("freed handle %d still resolves", h)
		}
	}
}

// runDifferential drives one switch through a randomized insert / touch /
// burst / delete / re-add sequence — plus the arena's adversarial ops:
// timeout expiry and Reset (both recycle handles, so later steps probe
// stale-handle detection), and install bursts past both table capacities
// (free-list exhaustion followed by arena growth mid-churn) — checking
// index-vs-scan agreement and the arena invariants after every step. Small
// capacities keep the cache saturated, so evictions, promotions, and
// refills fire constantly.
func runDifferential(t *testing.T, policy Policy, seed int64) {
	p := TestSwitch(6, policy)
	p.SoftwareCapacity = 18
	clk := simclock.NewVirtual()
	s := New(p, WithSeed(seed), WithClock(clk))
	rng := rand.New(rand.NewSource(seed))

	var live []uint32
	nextID := uint32(0)
	priorities := []uint16{10, 20, 30, 40}

	for step := 0; step < 500; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // install a new flow
			id := nextID
			nextID++
			err := addFlowErr(s, id, priorities[rng.Intn(len(priorities))])
			if err == nil {
				live = append(live, id)
			}
		case op < 7: // touch an existing flow with data traffic
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(4) // mix single packets and bursts
			if _, err := s.SendPacketN(raw, 1, n); err != nil {
				t.Fatal(err)
			}
		case op < 8: // duplicate add: overwrites in place, must not enter an index
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			_ = addFlowErr(s, id, priorities[rng.Intn(len(priorities))])
		case op < 10: // delete an existing flow (strict)
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			m := flowtable.ExactProbeMatch(id)
			for _, prio := range priorities {
				_ = s.FlowMod(&openflow.FlowMod{
					Command: openflow.FlowDeleteStrict, Match: m, Priority: prio,
				})
			}
		case op < 11: // timed install, then sometimes expire: frees recycle handles
			id := nextID
			nextID++
			err := s.FlowMod(&openflow.FlowMod{
				Command:     openflow.FlowAdd,
				Match:       flowtable.ExactProbeMatch(id),
				Priority:    priorities[rng.Intn(len(priorities))],
				IdleTimeout: uint16(1 + rng.Intn(2)),
				HardTimeout: uint16(1 + rng.Intn(3)),
				Actions:     flowtable.Output(1),
			})
			if err == nil {
				live = append(live, id) // may die to expiry; later ops turn into no-ops
			}
			if rng.Intn(2) == 0 {
				clk.Advance(time.Duration(1+rng.Intn(4)) * time.Second)
				s.ExpireNow()
			}
		default: // arena stress: Reset, or a burst past capacity forcing growth
			if rng.Intn(3) == 0 {
				s.Reset()
				live = live[:0]
			} else {
				for i := 0; i < 30; i++ {
					id := nextID
					nextID++
					if addFlowErr(s, id, priorities[rng.Intn(len(priorities))]) == nil {
						live = append(live, id)
					}
				}
			}
		}
		checkIndexes(t, s)
	}
}

// TestEvictionIndexDifferential replays randomized operation sequences
// against every named policy and a set of random LEX composites, asserting
// after each operation that the incremental index and the naive full scan
// agree on the next victim and the next promotion candidate.
func TestEvictionIndexDifferential(t *testing.T) {
	named := []struct {
		name   string
		policy Policy
	}{
		{"fifo", PolicyFIFO},
		{"lru", PolicyLRU},
		{"lfu", PolicyLFU},
		{"priority", PolicyPriority},
	}
	for _, tc := range named {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runDifferential(t, tc.policy, 1)
		})
	}

	// Random LEX composites: every subset/order/direction of the non-serial
	// attributes terminated by a serial key, like the conformance generator.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		policy := randomLexPolicy(rng)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("lex-%d-%s", i, policy), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, policy, seed)
		})
	}
}

// randomLexPolicy draws a random LEX composite: a shuffled subset of the
// non-serial attributes with random directions, terminated by a serial key
// (insertion or use-time) so the order is total before the insertSeq
// tie-break even kicks in.
func randomLexPolicy(rng *rand.Rand) Policy {
	nonSerial := []Attribute{AttrTraffic, AttrPriority}
	var keys []SortKey
	for _, idx := range rng.Perm(len(nonSerial))[:rng.Intn(len(nonSerial)+1)] {
		keys = append(keys, SortKey{Attr: nonSerial[idx], HighIsBetter: rng.Intn(2) == 0})
	}
	serial := SortKey{Attr: AttrInsertion, HighIsBetter: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		serial = SortKey{Attr: AttrUseTime, HighIsBetter: true}
	}
	return Policy{Keys: append(keys, serial)}
}
