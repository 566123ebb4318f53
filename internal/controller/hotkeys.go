package controller

import "omniwindow/internal/packet"

// HotTracker implements the controller side of the RDMA address MAT (§7):
// it monitors how often each flow key recurs across sub-windows and
// decides which keys deserve a cached memory address in the switch
// (hot keys get RDMA WRITEs into a cached per-key row; cold keys go
// through the append buffer).
type HotTracker struct {
	capacity  int
	threshold int
	counts    map[packet.FlowKey]int
	hot       map[packet.FlowKey]bool
}

// NewHotTracker builds a tracker for an address MAT of the given capacity;
// keys become hot after `threshold` observations.
func NewHotTracker(capacity, threshold int) *HotTracker {
	if capacity <= 0 {
		panic("controller: hot tracker capacity must be positive")
	}
	if threshold < 1 {
		threshold = 1
	}
	return &HotTracker{
		capacity:  capacity,
		threshold: threshold,
		counts:    make(map[packet.FlowKey]int),
		hot:       make(map[packet.FlowKey]bool),
	}
}

// Observe records one appearance of k (one AFR in one sub-window) and
// returns whether k just crossed into hotness and should be installed in
// the switch's address MAT (subject to capacity).
func (h *HotTracker) Observe(k packet.FlowKey) (promote bool) {
	h.counts[k]++
	if h.hot[k] || h.counts[k] < h.threshold || len(h.hot) >= h.capacity {
		return false
	}
	h.hot[k] = true
	return true
}

// IsHot reports whether k currently holds an address MAT entry.
func (h *HotTracker) IsHot(k packet.FlowKey) bool { return h.hot[k] }

// HotCount returns the number of installed hot keys.
func (h *HotTracker) HotCount() int { return len(h.hot) }

// Decay ages all counts at a window boundary and returns the keys that
// went cold and must be deleted from the address MAT.
func (h *HotTracker) Decay() (demote []packet.FlowKey) {
	for k, c := range h.counts {
		c /= 2
		if c == 0 {
			delete(h.counts, k)
			if h.hot[k] {
				delete(h.hot, k)
				demote = append(demote, k)
			}
			continue
		}
		h.counts[k] = c
		if h.hot[k] && c < h.threshold {
			delete(h.hot, k)
			demote = append(demote, k)
		}
	}
	return demote
}
