package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/packet"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 needs 100 samples, a p99 1000.
const minBeyond = 10

// percentiles is the ladder highestPercentile climbs.
var percentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder with at
// least minBeyond of n samples beyond it, or 0 when even the median has
// too few.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// fastest marks the quarter of the samples (rounded up) with the least
// wall time. The samples time the same work, so on a shared host the
// slower ones are those a co-tenant slowed down.
func fastest(samples []time.Duration) []bool {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return samples[idx[a]] < samples[idx[b]] })
	fast := make([]bool, len(samples))
	for _, i := range idx[:(len(idx)+3)/4] {
		fast[i] = true
	}
	return fast
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// collected reports how many sub-windows a feeder call collected, given
// Stats().SubWindows before and after it. A call that collected any is a
// boundary call: its duration is one time-to-result sample, covering C&R,
// controller assembly, durability and the window emission of those
// sub-windows.
func collected(before, after int) int {
	if after > before {
		return after - before
	}
	return 0
}

// crSelf is the collect-and-reset share of a boundary call: its wall time
// minus the controller assembly and the durable writes the registry timed
// inside it. Registry and feeder read the same clock at different points,
// so a remainder below zero is rounding and reads as zero.
func crSelf(boundary, finish, wal, checkpoint time.Duration) time.Duration {
	d := boundary - finish - wal - checkpoint
	if d < 0 {
		return 0
	}
	return d
}

// digest hashes the windows ending before sub-window end: bounds, damage
// flags and detected flows, the flows sorted so the digest pins what was
// detected, not the controller's iteration order.
func digest(res []controller.WindowResult, end uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, w := range res {
		if w.End >= end {
			continue
		}
		put(w.Start)
		put(w.End)
		var flags uint64
		if w.Incomplete {
			flags |= 1
		}
		if w.Degraded {
			flags |= 2
		}
		put(flags)
		keys := make([][packet.KeyBytes]byte, len(w.Detected))
		for i, k := range w.Detected {
			keys[i] = k.Bytes()
		}
		sort.Slice(keys, func(i, j int) bool { return string(keys[i][:]) < string(keys[j][:]) })
		put(uint64(len(keys)))
		for i := range keys {
			h.Write(keys[i][:])
		}
	}
	return h.Sum64()
}

// windowCheck is the output check behind windows_failed_ratio.
type windowCheck struct {
	// expected is the number of windows the plan must emit; failed counts
	// those missing, flagged Incomplete or Degraded on a fault-free run,
	// or missing a ground-truth heavy hitter.
	expected, failed                                         int
	missing, flagged, missedWindows, missedFlows, unexpected int
	positives                                                int
}

// checkWindows checks the windows emitted for sub-windows 0..last against
// the exact heavy hitters, indexed by the window's last sub-window modulo
// the epoch. Count-Min never underestimates, so a missed heavy hitter is a
// framework fault (a lost AFR, a flowkey Bloom false positive), never
// sketch error.
func checkWindows(res []controller.WindowResult, last uint64, truth [][]packet.FlowKey) windowCheck {
	var c windowCheck
	if last+1 < planSize {
		return c
	}
	c.expected = int(last + 2 - planSize)
	byEnd := make(map[uint64]*controller.WindowResult, len(res))
	for i := range res {
		w := &res[i]
		if w.End > last || w.End+1 < planSize || w.Start != w.End+1-planSize || byEnd[w.End] != nil {
			c.unexpected++
			continue
		}
		byEnd[w.End] = w
	}
	for end := uint64(planSize - 1); end <= last; end++ {
		w := byEnd[end]
		if w == nil {
			c.missing++
			c.failed++
			continue
		}
		failed := false
		if w.Incomplete || w.Degraded {
			c.flagged++
			failed = true
		}
		hh := truth[end%uint64(len(truth))]
		c.positives += len(hh)
		detected := make(map[packet.FlowKey]struct{}, len(w.Detected))
		for _, k := range w.Detected {
			detected[k] = struct{}{}
		}
		missed := 0
		for _, k := range hh {
			if _, ok := detected[k]; !ok {
				missed++
			}
		}
		if missed > 0 {
			c.missedWindows++
			c.missedFlows += missed
			failed = true
		}
		if failed {
			c.failed++
		}
	}
	return c
}
