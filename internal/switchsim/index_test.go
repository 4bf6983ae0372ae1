package switchsim

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
)

func addrOf(w uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], w)
	return netip.AddrFrom4(b)
}

// keyMatch is an exact match on key k's address pair; the TCP destination
// port tells apart several matches sharing one key.
func keyMatch(k uint64, port uint16) flowtable.Match {
	return flowtable.Match{
		Fields: flowtable.FieldDlType | flowtable.FieldNwSrc | flowtable.FieldNwDst |
			flowtable.FieldNwProto | flowtable.FieldTpDst,
		DlType:  packet.EtherTypeIPv4,
		NwSrc:   netip.PrefixFrom(addrOf(uint32(k>>32)), 32),
		NwDst:   netip.PrefixFrom(addrOf(uint32(k)), 32),
		NwProto: packet.IPProtocolTCP,
		TpDst:   port,
	}
}

// trackedRef identifies a tracked rule for the oracle.
type trackedRef struct {
	m flowtable.Match
	p uint16
}

// checkTracked compares the switch's tracked-rule index with the oracle's
// list: the same multiset of (match, priority) pairs, and every key chain
// holding exactly the oracle's rules for that key.
func checkTracked(t *testing.T, s *Switch, oracle []trackedRef, keys []uint64) {
	t.Helper()
	got := map[trackedRef]int{}
	s.forEachTracked(func(r *flowtable.Rule) { got[trackedRef{r.Match, r.Priority}]++ })
	want := map[trackedRef]int{}
	perKey := map[uint64]int{}
	for _, ref := range oracle {
		want[ref]++
		if k, ok := flowtable.ExactKey(&ref.m); ok {
			perKey[k]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("switch tracks %d distinct rules, oracle %d", len(got), len(want))
	}
	for ref, n := range want {
		if got[ref] != n {
			t.Fatalf("rule %v/%d tracked %d times, oracle %d", ref.m, ref.p, got[ref], n)
		}
	}
	for _, k := range keys {
		n := 0
		for h := s.exact.Get(k); h != 0; h = s.arena.at(h).nextKey {
			n++
		}
		if n != perKey[k] {
			t.Fatalf("key %#x chains %d rules, oracle %d", k, n, perKey[k])
		}
	}
	checkArena(t, s)
}

// TestTrackedIndexDifferential runs long random add / modify / strict and
// non-strict delete / data-plane sequences against three switch kinds and a
// linear oracle of the tracked rules, with a Reset now and then. Most keys
// share one home slot of the tracked-rule index, so its chains are long and
// deletes backward-shift; re-adding a resident (match, priority) leaves a
// duplicate-add phantom chained behind the same key.
func TestTrackedIndexDifferential(t *testing.T) {
	var keys []uint64
	for k := uint64(0x0a530000_0a540000); len(keys) < 24; k++ {
		if flowtable.HashKey(k)&1023 == 5 {
			keys = append(keys, k)
		}
	}
	for i := 0; i < 8; i++ {
		keys = append(keys, uint64(0x0a530100_0a540100)+uint64(i)*0x1_0000_0001)
	}
	ports := []uint16{80, 81, 82}
	prios := []uint16{10, 20, 30}
	policy := TestSwitch(64, PolicyLRU)
	policy.SoftwareCapacity = 256
	ovs := OVS()
	ovs.SoftwareCapacity = 256
	ovs.KernelCapacity = 64
	for _, p := range []Profile{policy, ovs, Switch2().WithTCAMCapacity(128)} {
		t.Run(p.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			s := New(p)
			var oracle []trackedRef
			randRef := func() trackedRef {
				pr := prios[rng.Intn(len(prios))]
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(25) == 0 {
					m := flowtable.Match{Fields: flowtable.FieldNwSrc,
						NwSrc: netip.PrefixFrom(addrOf(uint32(k>>32)), 8+rng.Intn(24)).Masked()}
					return trackedRef{m, pr}
				}
				return trackedRef{keyMatch(k, ports[rng.Intn(len(ports))]), pr}
			}
			remove := func(victim func(ref trackedRef) bool) {
				kept := oracle[:0]
				for _, ref := range oracle {
					if !victim(ref) {
						kept = append(kept, ref)
					}
				}
				oracle = kept
			}
			has := func(ref trackedRef) bool {
				for _, o := range oracle {
					if o.p == ref.p && o.m.Same(&ref.m) {
						return true
					}
				}
				return false
			}
			for step := 0; step < 6000; step++ {
				ref := randRef()
				fm := &openflow.FlowMod{Match: ref.m, Priority: ref.p, Actions: flowtable.Output(1)}
				switch op := rng.Intn(20); {
				case op == 0 && rng.Intn(20) == 0:
					s.Reset()
					oracle = oracle[:0]
				case op < 8: // add; a resident (match, priority) leaves a phantom
					fm.Command = openflow.FlowAdd
					if s.FlowMod(fm) == nil {
						oracle = append(oracle, ref)
					}
				case op < 10: // modify strict; a missing rule is added
					fm.Command = openflow.FlowModifyStrict
					existed := has(ref)
					if s.FlowMod(fm) == nil && !existed {
						oracle = append(oracle, ref)
					}
				case op < 13: // strict delete: every tracked copy goes
					fm.Command = openflow.FlowDeleteStrict
					if err := s.FlowMod(fm); err != nil {
						t.Fatalf("step %d: delete: %v", step, err)
					}
					remove(func(o trackedRef) bool { return o.p == ref.p && o.m.Same(&ref.m) })
				case op < 15: // non-strict delete over a key or a prefix
					fm.Command = openflow.FlowDelete
					if k, ok := flowtable.ExactKey(&ref.m); ok && rng.Intn(2) == 0 {
						fm.Match = flowtable.Match{Fields: flowtable.FieldNwSrc | flowtable.FieldNwDst,
							NwSrc: netip.PrefixFrom(addrOf(uint32(k>>32)), 32),
							NwDst: netip.PrefixFrom(addrOf(uint32(k)), 32)}
					}
					if err := s.FlowMod(fm); err != nil {
						t.Fatalf("step %d: delete: %v", step, err)
					}
					remove(func(o trackedRef) bool { return fm.Match.Covers(&o.m) })
				default: // data plane: hits promote, demote and fill the kernel cache
					k := keys[rng.Intn(len(keys))]
					f := &packet.Frame{
						Eth:     packet.Ethernet{EtherType: packet.EtherTypeIPv4},
						HasIPv4: true,
						IP:      packet.IPv4{Protocol: packet.IPProtocolTCP, Src: addrOf(uint32(k >> 32)), Dst: addrOf(uint32(k))},
						HasTCP:  true,
						TCP:     packet.TCP{SrcPort: 1000, DstPort: ports[rng.Intn(len(ports))]},
					}
					res, err := s.SendFrameN(f, 1, 64, 1+rng.Intn(3))
					if err != nil {
						t.Fatalf("step %d: send: %v", step, err)
					}
					if res.Rule != nil && !res.Rule.Match.Matches(f, 1) {
						t.Fatalf("step %d: frame hit a rule it does not match", step)
					}
				}
				checkTracked(t, s, oracle, keys)
				if s.evictIdx != nil {
					checkIndexes(t, s)
				}
			}
		})
	}
}
