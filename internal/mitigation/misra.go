package mitigation

import "container/heap"

// MisraGries is a frequent-element counter in the space-saving style used
// by Graphene and AQUA: it tracks up to capacity row addresses; when a
// new row arrives and the table is full, the minimum-count entry is evicted
// and the newcomer inherits its count plus one. The estimate of any tracked
// row is an upper bound on its true activation count, which is what makes
// Graphene's refresh trigger sound.
type MisraGries struct {
	capacity int
	entries  []mgEntry   // heap ordered by count
	index    map[int]int // key -> heap position
}

type mgEntry struct {
	key   int
	count int
}

// NewMisraGries builds a tracker for up to capacity keys (minimum 1).
func NewMisraGries(capacity int) *MisraGries {
	if capacity < 1 {
		capacity = 1
	}
	return &MisraGries{
		capacity: capacity,
		index:    make(map[int]int),
	}
}

// Len returns the number of tracked keys.
func (m *MisraGries) Len() int { return len(m.entries) }

// Count returns the current estimate for a key (0 if untracked).
func (m *MisraGries) Count(key int) int {
	if pos, ok := m.index[key]; ok {
		return m.entries[pos].count
	}
	return 0
}

// Observe records one occurrence of key and returns its new estimate.
func (m *MisraGries) Observe(key int) int {
	if pos, ok := m.index[key]; ok {
		m.entries[pos].count++
		heap.Fix((*mgHeap)(m), pos)
		return m.entries[pos].count
	}
	if len(m.entries) < m.capacity {
		// heap.Push without boxing the entry into an interface: append,
		// then sift the new last element up.
		m.index[key] = len(m.entries)
		m.entries = append(m.entries, mgEntry{key: key, count: 1})
		heap.Fix((*mgHeap)(m), len(m.entries)-1)
		return 1
	}
	// Space-saving eviction: replace the minimum, inherit its count + 1.
	min := &m.entries[0]
	delete(m.index, min.key)
	min.key = key
	min.count++
	m.index[key] = 0
	heap.Fix((*mgHeap)(m), 0)
	return m.Count(key)
}

// ResetKey zeroes a key's estimate (after its victims are refreshed).
// Graphene keeps the entry in the table with a reset count.
func (m *MisraGries) ResetKey(key int) {
	if pos, ok := m.index[key]; ok {
		m.entries[pos].count = 0
		heap.Fix((*mgHeap)(m), pos)
	}
}

// Reset clears the whole table (per-window reset).
func (m *MisraGries) Reset() {
	m.entries = m.entries[:0]
	clear(m.index)
}

// mgHeap adapts MisraGries to container/heap (min-heap by count).
type mgHeap MisraGries

func (h *mgHeap) Len() int           { return len(h.entries) }
func (h *mgHeap) Less(i, j int) bool { return h.entries[i].count < h.entries[j].count }
func (h *mgHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.index[h.entries[i].key] = i
	h.index[h.entries[j].key] = j
}
func (h *mgHeap) Push(x any) {
	e := x.(mgEntry)
	h.index[e.key] = len(h.entries)
	h.entries = append(h.entries, e)
}
func (h *mgHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	delete(h.index, e.key)
	return e
}
