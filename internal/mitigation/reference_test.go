package mitigation

// FROZEN REFERENCE — do not edit this file to make a test pass.
//
// refMisraGries is the Misra-Gries tracker as it stood before the table
// became a specialised heap over an open-addressed index: a Go map from
// key to heap position and container/heap, copied verbatim with only the
// identifiers renamed. TestMisraGriesMatchesReference and FuzzMisraGries
// hold MisraGries to it operation by operation — return values, counts,
// length and the full heap order, which decides evictions among equal
// counts and therefore every Graphene and AQUA result. It is edited only
// when a results-schema change fixes a defect on purpose, and each such
// edit is listed here.
//
// Exceptions:
//
//	2026-10-15, results schema 5: Observe on a tracked key returned the
//	count at the key's pre-sift heap position — a smaller child's, when
//	the key sifted down — so Graphene and AQUA could trigger one
//	activation late. It now returns Count(key).

import "container/heap"

// refMisraGries is a frequent-element counter in the space-saving style used
// by Graphene and AQUA: it tracks up to capacity row addresses; when a
// new row arrives and the table is full, the minimum-count entry is evicted
// and the newcomer inherits its count plus one. The estimate of any tracked
// row is an upper bound on its true activation count, which is what makes
// Graphene's refresh trigger sound.
type refMisraGries struct {
	capacity int
	entries  []refMGEntry // heap ordered by count
	index    map[int]int  // key -> heap position
}

type refMGEntry struct {
	key   int
	count int
}

// newRefMisraGries builds a tracker for up to capacity keys (minimum 1).
func newRefMisraGries(capacity int) *refMisraGries {
	if capacity < 1 {
		capacity = 1
	}
	return &refMisraGries{
		capacity: capacity,
		index:    make(map[int]int),
	}
}

// Len returns the number of tracked keys.
func (m *refMisraGries) Len() int { return len(m.entries) }

// Count returns the current estimate for a key (0 if untracked).
func (m *refMisraGries) Count(key int) int {
	if pos, ok := m.index[key]; ok {
		return m.entries[pos].count
	}
	return 0
}

// Observe records one occurrence of key and returns its new estimate.
func (m *refMisraGries) Observe(key int) int {
	if pos, ok := m.index[key]; ok {
		m.entries[pos].count++
		heap.Fix((*refMGHeap)(m), pos)
		return m.Count(key)
	}
	if len(m.entries) < m.capacity {
		// heap.Push without boxing the entry into an interface: append,
		// then sift the new last element up.
		m.index[key] = len(m.entries)
		m.entries = append(m.entries, refMGEntry{key: key, count: 1})
		heap.Fix((*refMGHeap)(m), len(m.entries)-1)
		return 1
	}
	// Space-saving eviction: replace the minimum, inherit its count + 1.
	min := &m.entries[0]
	delete(m.index, min.key)
	min.key = key
	min.count++
	m.index[key] = 0
	heap.Fix((*refMGHeap)(m), 0)
	return m.Count(key)
}

// ResetKey zeroes a key's estimate (after its victims are refreshed).
// Graphene keeps the entry in the table with a reset count.
func (m *refMisraGries) ResetKey(key int) {
	if pos, ok := m.index[key]; ok {
		m.entries[pos].count = 0
		heap.Fix((*refMGHeap)(m), pos)
	}
}

// Reset clears the whole table (per-window reset).
func (m *refMisraGries) Reset() {
	m.entries = m.entries[:0]
	clear(m.index)
}

// refMGHeap adapts refMisraGries to container/heap (min-heap by count).
type refMGHeap refMisraGries

func (h *refMGHeap) Len() int           { return len(h.entries) }
func (h *refMGHeap) Less(i, j int) bool { return h.entries[i].count < h.entries[j].count }
func (h *refMGHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.index[h.entries[i].key] = i
	h.index[h.entries[j].key] = j
}
func (h *refMGHeap) Push(x any) {
	e := x.(refMGEntry)
	h.index[e.key] = len(h.entries)
	h.entries = append(h.entries, e)
}
func (h *refMGHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	delete(h.index, e.key)
	return e
}
