package flowtable

// keyindex.go is the exact-match index shared by flow tables and the switch
// emulator: an open-addressing hash table from packed-match words (ExactKey —
// both IPv4 endpoints packed into one uint64) to one value per key. Table
// keys it to *Rule; the switch emulator keys it to int32 arena handles. The
// probe is a few integer operations over two flat slices, with no bucket
// pointer chase and no per-key allocation: a Go map cost Table about 100
// bytes per resident rule, this index 16 per slot.
//
// Layout and invariants:
//
//   - power-of-two capacity, linear probing;
//   - a slot holding the zero value is empty, so key 0 is representable
//     and needs no special casing, but the zero value itself (nil, handle
//     0) cannot be stored;
//   - deletion is tombstone-free: the hole is healed by backward-shifting
//     the probe chain, so lookup cost never degrades with churn the way
//     tombstone schemes do;
//   - one value per key: owners chain or side-list further values sharing
//     a key themselves.
//
// The table grows at 3/4 load by doubling.

// KeyIndex is the open-addressing key → value table. The zero value is an
// empty index ready for use.
type KeyIndex[V comparable] struct {
	keys []uint64
	vals []V
	used int
}

// HashKey mixes a packed match word; a key's probe starts at slot
// HashKey(k) & (Cap()-1). Probe workloads use adjacent IPv4 addresses, so
// the low bits of raw keys collide catastrophically under masking; the
// murmur3 finalizer spreads every input bit across the word. Exported so
// tests can build colliding key sets.
func HashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Init empties the index and sizes it for about n resident keys, rounding
// capacity to the next power of two that keeps load under 3/4.
func (x *KeyIndex[V]) Init(n int) {
	capacity := 8
	for capacity*3 < n*4 {
		capacity *= 2
	}
	x.keys = make([]uint64, capacity)
	x.vals = make([]V, capacity)
	x.used = 0
}

// Reset empties the index in place, keeping capacity.
func (x *KeyIndex[V]) Reset() {
	clear(x.keys)
	clear(x.vals)
	x.used = 0
}

// Len returns the number of resident keys.
func (x *KeyIndex[V]) Len() int { return x.used }

// Cap returns the slot count (zero before the first Init or Put).
func (x *KeyIndex[V]) Cap() int { return len(x.vals) }

// Get returns the value for key k, or the zero value when absent.
func (x *KeyIndex[V]) Get(k uint64) V {
	if i, ok := x.slot(k); ok {
		return x.vals[i]
	}
	var zero V
	return zero
}

// Put inserts key k with value v, which must not be the zero value. The key
// must be absent; callers update resident keys with Set.
func (x *KeyIndex[V]) Put(k uint64, v V) {
	var zero V
	if len(x.vals) == 0 {
		x.Init(0)
	} else if (x.used+1)*4 > len(x.vals)*3 {
		x.grow()
	}
	mask := uint64(len(x.vals) - 1)
	i := HashKey(k) & mask
	for x.vals[i] != zero {
		i = (i + 1) & mask
	}
	x.keys[i], x.vals[i] = k, v
	x.used++
}

// Set replaces the value of a resident key; absent keys are left absent.
func (x *KeyIndex[V]) Set(k uint64, v V) {
	if i, ok := x.slot(k); ok {
		x.vals[i] = v
	}
}

// slot returns the slot holding key k; ok is false when k is absent.
func (x *KeyIndex[V]) slot(k uint64) (uint64, bool) {
	var zero V
	if len(x.vals) == 0 {
		return 0, false
	}
	mask := uint64(len(x.vals) - 1)
	for i := HashKey(k) & mask; ; i = (i + 1) & mask {
		if x.vals[i] == zero {
			return 0, false
		}
		if x.keys[i] == k {
			return i, true
		}
	}
}

// Del removes key k, healing the probe chain by backward shift: elements
// displaced past the hole move back into it until a slot that hashes inside
// the remaining gap (or an empty slot) terminates the chain. No tombstones
// are left behind, so heavy same-bucket churn cannot degrade later lookups.
func (x *KeyIndex[V]) Del(k uint64) {
	var zero V
	i, ok := x.slot(k)
	if !ok {
		return
	}
	x.used--
	mask := uint64(len(x.vals) - 1)
	for {
		x.keys[i], x.vals[i] = 0, zero
		j := i
		for {
			j = (j + 1) & mask
			if x.vals[j] == zero {
				return
			}
			home := HashKey(x.keys[j]) & mask
			// Move j's element into the hole when its probe path crosses
			// the hole — that is, when its home slot does not sit strictly
			// inside the (i, j] cyclic interval.
			if ((j - home) & mask) >= ((j - i) & mask) {
				x.keys[i], x.vals[i] = x.keys[j], x.vals[j]
				i = j
				break
			}
		}
	}
}

// Range calls fn with every resident value in slot order — deterministic
// for a given insertion history, but otherwise unspecified.
func (x *KeyIndex[V]) Range(fn func(v V)) {
	var zero V
	for _, v := range x.vals {
		if v != zero {
			fn(v)
		}
	}
}

// grow doubles capacity and rehashes every resident key.
func (x *KeyIndex[V]) grow() {
	var zero V
	oldKeys, oldVals := x.keys, x.vals
	x.Init(len(oldVals))
	for i, v := range oldVals {
		if v != zero {
			x.Put(oldKeys[i], v)
		}
	}
}
