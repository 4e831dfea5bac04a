package mitigation

import "math/bits"

// MisraGries is a frequent-element counter in the space-saving style used
// by Graphene and AQUA: it tracks up to capacity row addresses; when a
// new row arrives and the table is full, the minimum-count entry is evicted
// and the newcomer inherits its count plus one. The estimate of any tracked
// row is an upper bound on its true activation count, which is what makes
// Graphene's refresh trigger sound.
//
// The entries form a binary min-heap by count, sifted exactly as the
// standard library's heap.Fix sifts (down, and up only if down did not
// move), so the heap order — which decides evictions among equal counts —
// is the one the generic-heap version built. The key index is an
// open-addressed table in the style of cache.LLC's MSHR file, and every
// entry carries its slot, so a heap swap rewrites two slots without
// hashing.
type MisraGries struct {
	capacity int
	entries  []mgEntry // min-heap by count

	// slots maps key -> heap position: a power of two at least twice the
	// live entries, grown by doubling and never sized to capacity up front
	// (Graphene's is ~20 K per bank, mostly unused), probed linearly from
	// a multiplicative hash of the key; deletion shifts back.
	slots []mgSlot
	shift uint // 64 - log2(len(slots))
}

type mgEntry struct {
	key   int
	count int
	slot  int // the key's slot in MisraGries.slots
}

// mgSlot is one index slot: a key and its heap position plus one (0 marks
// an empty slot).
type mgSlot struct {
	key int
	pos int
}

// mgMinSlots is the index size of a fresh table.
const mgMinSlots = 8

// NewMisraGries builds a tracker for up to capacity keys (minimum 1).
func NewMisraGries(capacity int) *MisraGries {
	if capacity < 1 {
		capacity = 1
	}
	m := &MisraGries{capacity: capacity}
	m.rehash(mgMinSlots)
	return m
}

// Len returns the number of tracked keys.
func (m *MisraGries) Len() int { return len(m.entries) }

// Count returns the current estimate for a key (0 if untracked).
func (m *MisraGries) Count(key int) int {
	if _, pos := m.find(key); pos >= 0 {
		return m.entries[pos].count
	}
	return 0
}

// Observe records one occurrence of key and returns its new estimate.
func (m *MisraGries) Observe(key int) int {
	slot, pos := m.find(key)
	if pos >= 0 {
		m.entries[pos].count++
		m.fix(pos)
		// Count(key) without the probe: fix may have moved the key's entry,
		// but not its slot.
		return m.entries[m.slots[slot].pos-1].count
	}
	if n := len(m.entries); n < m.capacity {
		if 2*(n+1) > len(m.slots) {
			m.rehash(2 * len(m.slots))
			slot, _ = m.find(key)
		}
		m.slots[slot] = mgSlot{key: key, pos: n + 1}
		m.entries = append(m.entries, mgEntry{key: key, count: 1, slot: slot})
		m.fix(n)
		return 1
	}
	// Space-saving eviction: replace the minimum, inherit its count + 1.
	min := &m.entries[0]
	m.remove(min.slot)
	slot, _ = m.find(key)
	m.slots[slot] = mgSlot{key: key, pos: 1}
	min.key, min.slot = key, slot
	min.count++
	count := min.count
	m.fix(0)
	return count
}

// ResetKey zeroes a key's estimate (after its victims are refreshed).
// Graphene keeps the entry in the table with a reset count.
func (m *MisraGries) ResetKey(key int) {
	if _, pos := m.find(key); pos >= 0 {
		m.entries[pos].count = 0
		m.fix(pos)
	}
}

// Reset clears the whole table (per-window reset), keeping its storage.
func (m *MisraGries) Reset() {
	m.entries = m.entries[:0]
	clear(m.slots)
}

// home is the slot a key's probe sequence starts from.
func (m *MisraGries) home(key int) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> m.shift)
}

// find returns a tracked key's slot and heap position, or the empty slot
// where the key would go and -1.
func (m *MisraGries) find(key int) (slot, pos int) {
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.pos == 0 {
			return i, -1
		}
		if s.key == key {
			return i, s.pos - 1
		}
	}
}

// remove empties slot i and shifts the keys probing past it back over the
// hole, so no probe sequence is ever cut by an empty slot.
func (m *MisraGries) remove(i int) {
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].pos != 0; j = (j + 1) & mask {
		// The key at j may move to i only if its home is not in (i, j].
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			m.entries[m.slots[i].pos-1].slot = i
			i = j
		}
	}
	m.slots[i] = mgSlot{}
}

// rehash replaces the index with an empty one of size slots (a power of
// two) and refiles every live entry.
func (m *MisraGries) rehash(size int) {
	m.slots = make([]mgSlot, size)
	m.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for p := range m.entries {
		e := &m.entries[p]
		e.slot, _ = m.find(e.key)
		m.slots[e.slot] = mgSlot{key: e.key, pos: p + 1}
	}
}

// fix restores the heap after entry i's count changed: the standard
// library's heap.Fix specialised to mgEntry.
func (m *MisraGries) fix(i int) {
	if !m.down(i) {
		m.up(i)
	}
}

func (m *MisraGries) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || m.entries[j].count >= m.entries[i].count {
			break
		}
		m.swap(i, j)
		j = i
	}
}

func (m *MisraGries) down(i0 int) bool {
	e, n := m.entries, len(m.entries)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && e[j2].count < e[j1].count {
			j = j2 // right child, only when strictly smaller
		}
		if e[j].count >= e[i].count {
			break
		}
		m.swap(i, j)
		i = j
	}
	return i > i0
}

// swap exchanges heap positions i and j and rewrites their two slots.
func (m *MisraGries) swap(i, j int) {
	e := m.entries
	e[i], e[j] = e[j], e[i]
	m.slots[e[i].slot].pos = i + 1
	m.slots[e[j].slot].pos = j + 1
}
