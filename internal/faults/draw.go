package faults

// Every stateless schedule in this package (Crash, Switch, RDMA, Disk,
// Partition) decides its faults through draw: a fault at index x (a
// boundary, a verb attempt, a disk operation) fires when the salted hash
// of (seed, x) falls below the kind's probability. Distinct per-kind
// salts keep the streams independent, so enabling one fault kind never
// shifts another's schedule, and the same seed always replays the same
// fault sequence.

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed stateless
// hash (the same construction seeds xoshiro generators).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hash is the salted per-index hash; draw thresholds it, and fault kinds
// that need more than a yes/no (BitRotSpot) read its bits directly.
func hash(seed, salt, x uint64) uint64 {
	return splitmix64(seed ^ salt ^ splitmix64(x))
}

// draw reports whether index x fires under probability p: the hash's top
// 53 bits, read as a uniform value in [0, 1), fall below p.
func draw(seed, salt, x uint64, p float64) bool {
	return p > 0 && float64(hash(seed, salt, x)>>11)/float64(1<<53) < p
}

// inSpan reports whether x lies in the sustained interval [start,
// start+n); n == 0 is no interval.
func inSpan(x, start, n uint64) bool {
	return n > 0 && x >= start && x < start+n
}

// orMillisecond defaults an unset virtual latency (ns) to 1ms.
func orMillisecond(ns int64) int64 {
	if ns <= 0 {
		return 1_000_000
	}
	return ns
}
