package flowtable

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"tango/internal/packet"
)

// collidingKeys returns n distinct keys whose probe chains all start at slot
// home of any KeyIndex with at most mask+1 slots.
func collidingKeys(mask, home uint64, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(0x0a530000_0a540000); len(keys) < n; k++ {
		if HashKey(k)&mask == home {
			keys = append(keys, k)
		}
	}
	return keys
}

func addrOf(w uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], w)
	return netip.AddrFrom4(b)
}

// keyMatch is an exact match on key k's address pair; the TCP destination
// port tells apart several matches sharing one key.
func keyMatch(k uint64, port uint16) Match {
	return Match{
		Fields:  FieldDlType | FieldNwSrc | FieldNwDst | FieldNwProto | FieldTpDst,
		DlType:  packet.EtherTypeIPv4,
		NwSrc:   netip.PrefixFrom(addrOf(uint32(k>>32)), 32),
		NwDst:   netip.PrefixFrom(addrOf(uint32(k)), 32),
		NwProto: packet.IPProtocolTCP,
		TpDst:   port,
	}
}

// keyFrame is a TCP frame carrying key k's address pair to port.
func keyFrame(k uint64, port uint16) *packet.Frame {
	return &packet.Frame{
		Eth:     packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		HasIPv4: true,
		IP:      packet.IPv4{Protocol: packet.IPProtocolTCP, Src: addrOf(uint32(k >> 32)), Dst: addrOf(uint32(k))},
		HasTCP:  true,
		TCP:     packet.TCP{SrcPort: 1000, DstPort: port},
	}
}

// tableOracle is the linear-scan reference for Table: resident rules in
// insertion order.
type tableOracle struct{ rules []*Rule }

func (o *tableOracle) find(m *Match, priority uint16) *Rule {
	for _, r := range o.rules {
		if r.Priority == priority && r.Match.Same(m) {
			return r
		}
	}
	return nil
}

// lookup returns the highest-priority matching rule, the earliest inserted
// among equals.
func (o *tableOracle) lookup(f *packet.Frame, inPort uint16) *Rule {
	var best *Rule
	for _, r := range o.rules {
		if r.Match.Matches(f, inPort) && (best == nil || r.Priority > best.Priority) {
			best = r
		}
	}
	return best
}

func (o *tableOracle) remove(r *Rule) {
	for i, rr := range o.rules {
		if rr == r {
			o.rules = append(o.rules[:i], o.rules[i+1:]...)
			return
		}
	}
}

// TestTableIndexDifferential runs long random insert / modify / delete /
// Remove sequences against a Table and the linear-scan oracle, comparing
// every point lookup, frame lookup and capacity check. Most keys share one
// home slot, so index chains are long and every delete backward-shifts;
// several ports per key put rules in the duplicate-key side list; wildcard
// rules exercise the residue. The unbounded table starts at the minimum
// index size, so it also grows mid-sequence.
func TestTableIndexDifferential(t *testing.T) {
	keys := append(collidingKeys(1023, 5, 24), collidingKeys(1023, 6, 4)...)
	for i := 0; i < 8; i++ {
		keys = append(keys, uint64(0x0a530000_0a540000)+uint64(i)*0x1_0000_0001)
	}
	ports := []uint16{80, 81, 82}
	prios := []uint16{10, 20, 30}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := &Table{Capacity: 150}
		if seed%2 == 0 {
			tbl.Capacity = 0
		}
		var o tableOracle
		randMatch := func() (Match, uint16) {
			p := prios[rng.Intn(len(prios))]
			if rng.Intn(20) == 0 {
				k := keys[rng.Intn(len(keys))]
				bits := 8 + rng.Intn(24)
				return Match{Fields: FieldNwSrc, NwSrc: netip.PrefixFrom(addrOf(uint32(k>>32)), bits).Masked()}, p
			}
			return keyMatch(keys[rng.Intn(len(keys))], ports[rng.Intn(len(ports))]), p
		}
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // insert, duplicate (match, priority) included
				m, p := randMatch()
				r := &Rule{Match: m, Priority: p, Actions: Output(uint16(step))}
				full := tbl.Capacity > 0 && len(o.rules) >= tbl.Capacity
				if tbl.CanInsert(r) != (!full || o.find(&m, p) != nil) {
					t.Fatalf("seed %d step %d: CanInsert disagrees with the oracle", seed, step)
				}
				_, err := tbl.Insert(r, t0)
				switch dup := o.find(&m, p); {
				case dup != nil:
					if err != nil || dup.Actions[0].Port != uint16(step) {
						t.Fatalf("seed %d step %d: duplicate add did not overwrite in place: %v", seed, step, err)
					}
				case full:
					if err != ErrTableFull {
						t.Fatalf("seed %d step %d: add to a full table returned %v", seed, step, err)
					}
				default:
					if err != nil {
						t.Fatalf("seed %d step %d: add: %v", seed, step, err)
					}
					o.rules = append(o.rules, r)
				}
			case op < 5: // modify
				m, p := randMatch()
				err := tbl.Modify(&m, p, Output(7))
				if want := o.find(&m, p); (err == nil) != (want != nil) {
					t.Fatalf("seed %d step %d: Modify returned %v, oracle has %v", seed, step, err, want)
				}
			case op < 7: // delete by (match, priority)
				m, p := randMatch()
				want := o.find(&m, p)
				got, err := tbl.Delete(&m, p)
				if got != want || (err == nil) != (want != nil) {
					t.Fatalf("seed %d step %d: Delete returned %v, %v; oracle %v", seed, step, got, err, want)
				}
				if want != nil {
					o.remove(want)
				}
			case op < 8: // Remove a resident pointer
				if len(o.rules) == 0 {
					continue
				}
				r := o.rules[rng.Intn(len(o.rules))]
				if !tbl.Remove(r) {
					t.Fatalf("seed %d step %d: Remove missed a resident rule", seed, step)
				}
				o.remove(r)
			default: // lookups
				m, p := randMatch()
				if got, want := tbl.Find(&m, p), o.find(&m, p); got != want {
					t.Fatalf("seed %d step %d: Find = %v, oracle %v", seed, step, got, want)
				}
				f := keyFrame(keys[rng.Intn(len(keys))], ports[rng.Intn(len(ports))])
				if got, want := tbl.Lookup(f, 1), o.lookup(f, 1); got != want {
					t.Fatalf("seed %d step %d: Lookup = %v, oracle %v", seed, step, got, want)
				}
			}
			if tbl.Len() != len(o.rules) {
				t.Fatalf("seed %d step %d: table holds %d rules, oracle %d", seed, step, tbl.Len(), len(o.rules))
			}
			if err := tbl.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}
