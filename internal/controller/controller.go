// Package controller implements the OmniWindow controller: it collects
// AFRs from switches (bypassing switch OSes), stores them in a key-value
// table, merges per-flow statistics across sub-windows, assembles complete
// windows according to the merge plan, answers telemetry queries over the
// merged table, and evicts retired sub-windows (the O1–O5 operations
// measured in Exp#4).
//
// The key-value table is partitioned into Config.Shards hash-sharded
// slices so the O2 insert, O3 merge, O4 query evaluation and O5 eviction
// of FinishSubWindow run across cores, while ingest (Receive/IngestAFRs)
// is safe for concurrent callers and fans records out to their owning
// shard. Shards=1 degenerates to the fully sequential controller; results
// are deterministic and identical for every shard count (see DESIGN.md,
// "Controller concurrency model").
package controller

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/metrics"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// Config parameterizes a controller instance.
type Config struct {
	// Plan maps sub-windows to complete windows.
	Plan window.Plan
	// Kind is the statistic's merge pattern.
	Kind afr.Kind
	// Threshold is the default detection threshold applied to merged
	// values when Detector is nil.
	Threshold uint64
	// Detector optionally overrides threshold detection. It may be
	// called concurrently from shard workers and must be safe for
	// concurrent use (pure predicates are).
	Detector func(k packet.FlowKey, merged uint64) bool
	// DistinctCounter optionally overrides how OR-merged distinct
	// summaries are counted (see afr.DistinctCounter). Like Detector it
	// may be called concurrently and must be a pure function.
	DistinctCounter afr.DistinctCounter
	// CaptureValues copies every flow's merged value into each
	// WindowResult (needed by ARE metrics; costs a table scan).
	CaptureValues bool
	// Shards is the number of partitions of the key-value table. Each
	// shard owns the flows hashing to it and is processed by its own
	// worker during FinishSubWindow. <= 0 defaults to
	// runtime.GOMAXPROCS(0); 1 preserves the exact sequential behaviour
	// (no worker goroutines are spawned).
	Shards int
}

// contrib is one sub-window's contribution to a flow.
type contrib struct {
	sw          uint64
	attr        uint64
	distinct    [4]uint64
	hasDistinct bool
}

// entry is one flow's row in the key-value table.
type entry struct {
	contribs []contrib
	merged   afr.Merged
}

// shard owns one partition of the key-value table. Its mutex serializes
// concurrent ingest appends to the shard's slice of each open sub-window's
// pending records against the FinishSubWindow worker that drains and
// merges them; table entries are only ever touched by the worker that
// owns the shard, so no per-entry locking is needed.
type shard struct {
	mu    sync.Mutex
	table map[packet.FlowKey]*entry
	// spare is the pending slice the last finished sub-window drained
	// from this shard, emptied. The next sub-window to route records here
	// appends into it, so steady traffic (which repeats its cardinality)
	// reuses one backing array instead of regrowing it per sub-window.
	spare []packet.AFR
}

// appendPending appends recs to shard i's pending slice of sw, starting
// from the shard's spare on first use. Caller holds s.mu.
func (s *shard) appendPending(sw *subWindow, i int, recs ...packet.AFR) {
	p := sw.pending[i]
	if p == nil {
		p, s.spare = s.spare, nil
	}
	sw.pending[i] = append(p, recs...)
}

// seqSet tracks the AFR sequence numbers seen in one sub-window. Switch
// sequence spaces are dense (0..expected-1), so the set is a growable
// bitset — one bit per record where the map it replaced paid tens of bytes
// per entry — with a spill map for hostile/garbage sequence numbers above
// the dense bound so a single corrupt frame cannot balloon the words
// array. Iteration (export, gap scans) is naturally in ascending order.
type seqSet struct {
	words    []uint64
	n        int
	overflow map[uint32]struct{}
}

// maxDenseSeq bounds the bitset-backed range: 1<<22 sequences cost at most
// 512 KiB of words. Anything above (no real sub-window announces that many
// AFRs) lands in the overflow map.
const maxDenseSeq = 1 << 22

// add inserts seq, reporting whether it was absent.
func (s *seqSet) add(seq uint32) bool {
	if seq >= maxDenseSeq {
		if _, dup := s.overflow[seq]; dup {
			return false
		}
		if s.overflow == nil {
			s.overflow = make(map[uint32]struct{})
		}
		s.overflow[seq] = struct{}{}
		s.n++
		return true
	}
	w := int(seq >> 6)
	if w >= len(s.words) {
		// The region [len, cap) is zero by construction: words only ever
		// grows (freshly made backing arrays are zeroed, and bits are set
		// only below len), so extending within capacity needs no clearing.
		if need := w + 1; need <= cap(s.words) {
			s.words = s.words[:need]
		} else {
			grown := make([]uint64, need, 2*need)
			copy(grown, s.words)
			s.words = grown
		}
	}
	bit := uint64(1) << (seq & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// has reports whether seq is in the set.
func (s *seqSet) has(seq uint32) bool {
	if seq >= maxDenseSeq {
		_, ok := s.overflow[seq]
		return ok
	}
	w := int(seq >> 6)
	return w < len(s.words) && s.words[w]&(1<<(seq&63)) != 0
}

// size is the number of distinct sequences added.
func (s *seqSet) size() int { return s.n }

// appendSorted appends every sequence in ascending order — bitset words
// iterate sorted by construction, and every overflow sequence is above the
// dense bound, so the concatenation is fully sorted. Snapshot encoding
// depends on this determinism.
func (s *seqSet) appendSorted(dst []uint32) []uint32 {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, uint32(w<<6+b))
			word &^= 1 << b
		}
	}
	if len(s.overflow) > 0 {
		start := len(dst)
		for seq := range s.overflow {
			dst = append(dst, seq)
		}
		ovf := dst[start:]
		sort.Slice(ovf, func(i, j int) bool { return ovf[i] < ovf[j] })
	}
	return dst
}

// subWindow is one sub-window's controller record. It is created by the
// first arrival, trigger, spike or damage charge that names the
// sub-window and goes through three states:
//
//   - open: it holds the arrival state — the AFR sequence numbers seen so
//     far (duplicate suppression, §8 reliability), the key count
//     announced by the trigger packet (-1 when unknown), the count of
//     sequences whose first arrival was a retransmission and the count
//     admission control shed — plus the spike-copy dedup, the O1–O5 times
//     and each shard's routed-but-not-yet-inserted records;
//   - finished: FinishSubWindow froze the delivery accounting into rel
//     and dropped the arrival state; later arrivals count as duplicates;
//   - retired: O5 deleted the record once no future window needs it.
type subWindow struct {
	sw uint64
	// mu guards every field but sw and pending.
	mu       sync.Mutex
	finished bool

	// arrived reports that an AFR or trigger opened the arrival state;
	// records opened only by spikes or damage charges carry none.
	arrived   bool
	seen      seqSet
	expected  int
	recovered int
	shed      int

	// rel is the frozen delivery accounting once finished. While open it
	// holds damage charged ahead of the finish (NoteLost), which the
	// finish folds into the frozen figures. hasRel reports that it was
	// ever set: a record without one reads as never announced.
	rel    metrics.Reliability
	hasRel bool

	// spikeSeen dedups the latency-spike copies merged through the
	// software path, so each copy counts exactly once in spikes.
	spikeSeen map[spikeID]bool
	spikes    int

	times OpTimes

	// pending holds, per shard, the records routed to that shard and not
	// yet inserted. Element i is guarded by shards[i].mu, not by mu.
	pending [][]packet.AFR
}

// reliability reads the live arrival accounting. Caller holds w.mu.
func (w *subWindow) reliability() metrics.Reliability {
	r := metrics.Reliability{Expected: w.expected, Received: w.seen.size(), Recovered: w.recovered, Shed: w.shed}
	for s := 0; s < w.expected; s++ {
		if !w.seen.has(uint32(s)) {
			r.Missing++
		}
	}
	return r
}

// OpTimes is the per-sub-window controller time breakdown of Exp#4.
type OpTimes struct {
	// Collect (O1) is the time to receive and parse AFR packets.
	Collect time.Duration
	// Insert (O2) is the time to insert AFRs into the key-value table.
	Insert time.Duration
	// Merge (O3) is the time to fold contributions into merged values.
	Merge time.Duration
	// Process (O4) is the time to evaluate the query over a completed
	// window.
	Process time.Duration
	// Evict (O5) is the time to remove the oldest sub-window(s).
	Evict time.Duration
}

// Total sums all operations.
func (t OpTimes) Total() time.Duration {
	return t.Collect + t.Insert + t.Merge + t.Process + t.Evict
}

// WindowResult is one completed window's output.
type WindowResult struct {
	// Start and End delimit the window's sub-windows, inclusive.
	Start, End uint64
	// Detected are the flows satisfying the query.
	Detected []packet.FlowKey
	// Values are the merged per-flow statistics (nil unless
	// Config.CaptureValues).
	Values map[packet.FlowKey]uint64
	// Incomplete reports that announced AFRs of at least one constituent
	// sub-window never arrived, even after the reliability protocol's
	// bounded retries — the window's statistics are a lower bound, not
	// ground truth, and downstream consumers must not treat the two the
	// same (§8). MissingAFRs counts the absent records.
	Incomplete  bool
	MissingAFRs int
	// ShedAFRs counts records admission control dropped under overload
	// across the window's sub-windows — overload pressure accounting,
	// whether or not the NACK/retransmit path later repaired the gaps.
	ShedAFRs int
	// Degraded reports that load shedding actually damaged this window:
	// at least one constituent sub-window shed records AND still had
	// gaps when the window finalized. A shed-but-fully-recovered window
	// is exact (ShedAFRs > 0, Degraded false); a Degraded window's
	// statistics are a lower bound that overload, not the network,
	// caused — consumers must not read it as ground truth.
	Degraded bool
	// SpikePackets counts latency-spike packets merged into this window's
	// sub-windows through the controller's software path (§5): packets
	// whose stamped sub-window was no longer preserved in the data plane,
	// so their contribution was added to the key-value table directly.
	// Each spike copy is merged exactly once (dedup by flow key + packet
	// sequence per sub-window), so the merged statistics stay exact.
	SpikePackets int
	// DegradedSwitches lists, for network-wide deployments, the switches
	// whose coverage is missing or partial in this window (reboot wiped
	// their uncollected regions, they stamped while unsynced, or they were
	// quarantined). It extends the Degraded contract to the switch plane:
	// non-empty DegradedSwitches implies Degraded, and the window's
	// statistics are a lower bound on the flows those switches carried.
	// The fabric layer fills it; single-switch controllers leave it nil.
	DegradedSwitches []int
}

// Controller assembles windows from AFR batches. Ingest (Receive,
// IngestAFRs) is safe for concurrent callers; FinishSubWindow serializes
// against itself but may run concurrently with ingest.
type Controller struct {
	cfg    Config
	shards []*shard

	// mu guards subs, lastFin, hasFin and lastTimes. Each record has its
	// own lock, so concurrent ingest holds this one only for the lookup.
	mu   sync.Mutex
	subs map[uint64]*subWindow
	// lastFin is the highest sub-window FinishSubWindow has completed
	// (valid only when hasFin). Checkpoints carry it so a restored
	// controller knows which WAL finish records are already applied.
	lastFin uint64
	hasFin  bool
	// lastTimes is lastFin's O1–O5 breakdown, kept past its retirement:
	// a tumbling plan retires a window's last sub-window in the same
	// finish that completes it.
	lastTimes OpTimes

	// finishMu serializes window assembly: FinishSubWindow drains and
	// merges every shard, so two assemblies must not interleave.
	finishMu sync.Mutex

	// scratch recycles ingestBatch's routing/partition workspace. An
	// explicit free list rather than sync.Pool: GC must not drain it, or
	// the zero-allocs/op steady-state gates would flake.
	scratchMu   sync.Mutex
	scratchFree []*ingestScratch

	// obs is the runtime instrumentation handle set (internal/obs). The
	// zero value is disabled: every handle is nil and every call a
	// no-op, keeping the hot path untouched. Install with SetObs.
	obs Obs
}

// NewWithError validates the configuration and builds a controller. An
// invalid merge plan is reported as an error so network-facing callers
// (e.g. the UDP collector path) can reject bad configs without crashing.
func NewWithError(cfg Config) (*Controller, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	c := &Controller{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		subs:   make(map[uint64]*subWindow),
	}
	for i := range c.shards {
		c.shards[i] = &shard{table: make(map[packet.FlowKey]*entry)}
	}
	return c, nil
}

// New builds a controller. Invalid plans panic: a controller cannot run
// without a window definition. Use NewWithError to handle the failure.
func New(cfg Config) *Controller {
	c, err := NewWithError(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Shards reports the number of key-value table partitions in use.
func (c *Controller) Shards() int { return len(c.shards) }

// TableSize returns the number of flows currently in the key-value table.
func (c *Controller) TableSize() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}

// shardIndex maps a flow key to its owning shard.
func (c *Controller) shardIndex(k packet.FlowKey) int {
	if len(c.shards) == 1 {
		return 0
	}
	return hashing.Shard(k, len(c.shards))
}

// recordLocked returns sw's record, creating it. Caller holds c.mu.
func (c *Controller) recordLocked(sw uint64) *subWindow {
	w, ok := c.subs[sw]
	if !ok {
		w = &subWindow{
			sw:       sw,
			finished: c.hasFin && sw <= c.lastFin,
			expected: -1,
			pending:  make([][]packet.AFR, len(c.shards)),
		}
		c.subs[sw] = w
	}
	return w
}

// record returns sw's record, creating it.
func (c *Controller) record(sw uint64) *subWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recordLocked(sw)
}

// open returns sw's record for an arrival, creating it, or nil once sw
// has finished: a finished sub-window takes no more arrivals, and a
// retired one must not come back. The caller still checks finished under
// the record's lock, since a finish may land between the two.
func (c *Controller) open(sw uint64) *subWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasFin && sw <= c.lastFin {
		return nil
	}
	return c.recordLocked(sw)
}

// lookup returns sw's record, or nil when there is none.
func (c *Controller) lookup(sw uint64) *subWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs[sw]
}

// ingestScratch is ingestBatch's reusable workspace: the per-record shard
// routing and the per-shard survivor partitions. Slices keep their
// capacity across batches; parts are truncated, never freed.
type ingestScratch struct {
	sis   []int
	parts [][]packet.AFR
	// subs holds the distinct open records the batch admitted into.
	subs []*subWindow
}

func (c *Controller) getScratch() *ingestScratch {
	c.scratchMu.Lock()
	n := len(c.scratchFree)
	if n == 0 {
		c.scratchMu.Unlock()
		return &ingestScratch{parts: make([][]packet.AFR, len(c.shards))}
	}
	sc := c.scratchFree[n-1]
	c.scratchFree = c.scratchFree[:n-1]
	c.scratchMu.Unlock()
	return sc
}

func (c *Controller) putScratch(sc *ingestScratch) {
	c.scratchMu.Lock()
	if len(c.scratchFree) < 16 {
		c.scratchFree = append(c.scratchFree, sc)
	}
	c.scratchMu.Unlock()
}

// Times returns the recorded O1–O5 breakdown for a sub-window: while its
// record lives, and for the last finished sub-window also after its
// retirement.
func (c *Controller) Times(sw uint64) OpTimes {
	c.mu.Lock()
	w := c.subs[sw]
	if w == nil {
		var t OpTimes
		if c.hasFin && sw == c.lastFin {
			t = c.lastTimes
		}
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.times
}

// Receive ingests one switch-to-controller packet: AFR payloads, trigger
// announcements and spilled flow keys are all accepted (O1). Safe for
// concurrent callers: records fan out to their owning shard.
func (c *Controller) Receive(p *packet.Packet) {
	start := time.Now()
	switch p.OW.Flag {
	case packet.OWAFR, packet.OWRetransmit:
		c.ingestBatch(p.OW.AFRs, p.OW.Flag == packet.OWRetransmit, true)
	case packet.OWTrigger:
		c.obs.Ring.Record(obs.StageAnnounced, p.OW.SubWindow, -1, int64(p.OW.KeyCount))
		w := c.open(p.OW.SubWindow)
		if w == nil {
			return
		}
		w.mu.Lock()
		// Announcements are cumulative knowledge: a retransmitted or
		// post-recovery trigger (e.g. a switch re-terminating against an
		// already-drained data structure announces KeyCount 0) must never
		// lower an expectation a replayed trigger already established —
		// that would erase Missing entries for keys the controller knows
		// it has not received. Keep the max; -1 means "not yet announced".
		if !w.finished {
			w.arrived = true
			w.expected = max(w.expected, int(p.OW.KeyCount))
			w.times.Collect += time.Since(start)
		}
		w.mu.Unlock()
	}
}

// IngestAFRs adds records directly (the RDMA path delivers memory writes,
// not packets). Dedup by sequence still applies. Safe for concurrent
// callers; the batch is hashed lock-free, deduplicated per sub-window,
// then appended to each shard with one lock acquisition per (shard,
// batch).
func (c *Controller) IngestAFRs(recs []packet.AFR) {
	c.ingestBatch(recs, false, false)
}

// ingestBatch is the shared batched ingest under Receive and IngestAFRs:
// route lock-free, dedup with one record-lock acquisition per run of
// equal sub-windows, then append each shard's survivors under one shard
// lock acquisition per (shard, batch). Records for a finished sub-window
// count as duplicates. retrans marks records arriving via the
// NACK/retransmit path, so recovery accounting counts only sequences
// whose FIRST arrival was a retransmission (a retransmit of a record that
// also arrived normally is a plain duplicate). charge attributes the
// elapsed time to O1 Collect (the packet path; direct RDMA ingest is not
// an O1 receive). recs is not retained: survivors are copied into the
// records' pending storage.
func (c *Controller) ingestBatch(recs []packet.AFR, retrans, charge bool) {
	if len(recs) == 0 {
		return
	}
	start := time.Now()
	sc := c.getScratch()
	if cap(sc.sis) < len(recs) {
		sc.sis = make([]int, len(recs))
	}
	sis := sc.sis[:len(recs)]
	for i := range recs {
		sis[i] = c.shardIndex(recs[i].Key)
	}
	parts := sc.parts
	var w *subWindow
	var wsw uint64
	var admitted, dups, recovered int64
	// release closes the current run: charge its O1 time and unlock.
	release := func() {
		if w == nil {
			return
		}
		if charge {
			now := time.Now()
			w.times.Collect += now.Sub(start)
			start = now
		}
		w.mu.Unlock()
	}
	for i := range recs {
		r := &recs[i]
		if i == 0 || r.SubWindow != wsw {
			release()
			wsw = r.SubWindow
			if w = c.open(wsw); w != nil {
				w.mu.Lock()
				if w.finished {
					w.mu.Unlock()
					w = nil
				} else {
					w.arrived = true
					if !slices.Contains(sc.subs, w) {
						sc.subs = append(sc.subs, w)
					}
				}
			}
		}
		if w == nil || !w.seen.add(r.Seq) {
			dups++
			continue // duplicate delivery, or late for a finished sub-window
		}
		if retrans {
			w.recovered++
			recovered++
		}
		admitted++
		parts[sis[i]] = append(parts[sis[i]], *r)
	}
	release()
	c.obs.Ingested.Add(admitted)
	c.obs.Duplicates.Add(dups)
	if recovered > 0 {
		c.obs.Recovered.Add(recovered)
	}
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		s := c.shards[si]
		s.mu.Lock()
		// Append runs of equal sub-windows so each run costs one record
		// search over the batch's few records.
		for j, k := 0, 0; j < len(part); j = k {
			sw := part[j].SubWindow
			for k = j + 1; k < len(part) && part[k].SubWindow == sw; k++ {
			}
			var w *subWindow
			for _, w = range sc.subs {
				if w.sw == sw {
					break
				}
			}
			s.appendPending(w, si, part[j:k]...)
		}
		s.mu.Unlock()
		parts[si] = part[:0]
	}
	clear(sc.subs)
	sc.subs = sc.subs[:0]
	c.putScratch(sc)
}

// spikeID identifies one latency-spike packet copy within its stamped
// sub-window: the flow key plus the packet-level sequence number. Link
// faults can duplicate a spike copy, and several downstream switches of
// one path may each clone the same late packet toward a shared controller;
// the ID makes every copy merge exactly once.
type spikeID struct {
	key packet.FlowKey
	seq uint32
}

// IngestSpike merges one latency-spike packet copy through the software
// path (§5): the packet's stamped sub-window is no longer preserved in any
// data-plane region, so its contribution — attr, computed by the caller
// from the application's merge pattern — is added to the key-value table
// directly, attributed to the stamped sub-window. Copies are deduplicated
// by (flow key, packet sequence) per sub-window, so duplicated or
// multiply-cloned spikes merge exactly once. It returns false without
// merging when the packet carries no stamp, when a copy of it was already
// merged, or when the stamped sub-window has already been finished (its
// window is emitted; merging now would silently corrupt later windows
// sharing the table). Safe for concurrent callers.
func (c *Controller) IngestSpike(p *packet.Packet, attr uint64) bool {
	if !p.OW.HasSubWindow {
		return false
	}
	sw := p.OW.SubWindow
	w := c.open(sw)
	if w == nil {
		return false
	}
	id := spikeID{key: p.Key, seq: p.Seq}
	w.mu.Lock()
	if w.finished || w.spikeSeen[id] {
		w.mu.Unlock()
		return false
	}
	if w.spikeSeen == nil {
		w.spikeSeen = make(map[spikeID]bool)
	}
	w.spikeSeen[id] = true
	w.spikes++
	w.mu.Unlock()

	// The contribution enters the owning shard's pending list like an AFR
	// and is folded by the next FinishSubWindow. It deliberately bypasses
	// the AFR sequence dedup: spike packets are not part of the switch's
	// announced per-sub-window sequence space, so they must not consume
	// (or collide with) AFR sequence numbers in loss accounting.
	si := c.shardIndex(p.Key)
	s := c.shards[si]
	s.mu.Lock()
	s.appendPending(w, si, packet.AFR{Key: p.Key, Attr: attr, SubWindow: sw})
	s.mu.Unlock()
	c.obs.Spikes.Inc()
	return true
}

// SpikePackets reports the number of spike copies merged so far for a
// sub-window (live while open, final after finishing, 0 once retired or
// never seen).
func (c *Controller) SpikePackets(sw uint64) int {
	w := c.lookup(sw)
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spikes
}

// MissingSeqs reports AFR sequence numbers the controller has not received
// for an open sub-window, given the key count announced by the trigger
// packet. It returns nil when nothing is known to be missing (§8,
// reliability).
func (c *Controller) MissingSeqs(sw uint64) []uint32 {
	w := c.lookup(sw)
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finished {
		return nil
	}
	var missing []uint32
	for s := 0; s < w.expected; s++ {
		if !w.seen.has(uint32(s)) {
			missing = append(missing, uint32(s))
		}
	}
	return missing
}

// Reliability reports a sub-window's AFR delivery accounting: live state
// while the sub-window is still collecting, the frozen figures after
// FinishSubWindow, and a zero-value "never heard of it" record (Expected
// -1) otherwise.
func (c *Controller) Reliability(sw uint64) metrics.Reliability {
	w := c.lookup(sw)
	if w == nil {
		return metrics.Reliability{Expected: -1}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case !w.finished && w.arrived:
		return w.reliability()
	case w.hasRel:
		return w.rel
	}
	return metrics.Reliability{Expected: -1}
}

// forEachShard runs f once per shard — inline when there is a single
// shard, on a worker goroutine per shard otherwise.
func (c *Controller) forEachShard(f func(i int, s *shard)) {
	if len(c.shards) == 1 {
		f(0, c.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(c.shards))
	for i, s := range c.shards {
		go func(i int, s *shard) {
			defer wg.Done()
			f(i, s)
		}(i, s)
	}
	wg.Wait()
}

// FinishSubWindow inserts the sub-window's batch into the key-value table
// (O2), merges per-flow statistics (O3), and — when a complete window ends
// here per the plan — processes the query (O4) and evicts retired
// sub-windows (O5). It returns the completed windows, usually zero or one
// per call.
//
// Sub-windows finish strictly in order: finishing one that is already
// finished is a no-op, and finishing one beyond lastFin+1 first finishes
// the skipped range. The skips happen when a rebooted switch resyncs past
// sub-windows its new incarnation never observed — without the fill, the
// window boundaries inside the gap would never assemble and, worse, never
// run O5 eviction, so contributions from before the gap would leak into
// the value of every window emitted after it. A filled sub-window that was
// never announced by a trigger is charged one missing AFR, so the window
// spanning it reports Incomplete instead of passing off the data loss as
// an exact result.
//
// All four operations run across shards on a worker pool; per-shard
// durations are summed into the sub-window's OpTimes so Exp#4's breakdown
// reports total CPU work, not wall-clock. Per-shard results are folded
// deterministically (a single FlowKey.Less sort over the concatenated
// detections), so the output is byte-for-byte identical for every shard
// count.
func (c *Controller) FinishSubWindow(sw uint64) []WindowResult {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	c.mu.Lock()
	done, last := c.hasFin, c.lastFin
	c.mu.Unlock()
	if done && sw <= last {
		return nil
	}
	var out []WindowResult
	if done {
		for fill := last + 1; fill < sw; fill++ {
			w := c.record(fill)
			w.mu.Lock()
			if !w.arrived && !w.hasRel {
				// Nothing was ever announced for this sub-window: its
				// data died with the switch. Record the loss so the
				// spanning window is marked Incomplete.
				w.rel, w.hasRel = metrics.Reliability{Missing: 1}, true
			}
			w.mu.Unlock()
			out = append(out, c.finishOne(fill)...)
		}
	}
	return append(out, c.finishOne(sw)...)
}

// finishOne runs the four finish operations for a single sub-window.
// Caller holds finishMu and has established that sw is the next
// sub-window in finish order.
func (c *Controller) finishOne(sw uint64) []WindowResult {
	finStart := time.Now()
	w := c.record(sw)
	// O2 + O3 per shard: drain the routed records, insert, merge.
	type o23 struct{ insert, merge time.Duration }
	o23s := make([]o23, len(c.shards))
	c.forEachShard(func(i int, s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		recs := w.pending[i]
		w.pending[i] = nil

		start := time.Now()
		touched := make([]*entry, 0, len(recs))
		for _, r := range recs {
			e, ok := s.table[r.Key]
			if !ok {
				e = &entry{merged: afr.NewMergedWithCounter(c.cfg.Kind, c.cfg.DistinctCounter)}
				s.table[r.Key] = e
			}
			e.contribs = append(e.contribs, contrib{
				sw: r.SubWindow, attr: r.Attr, distinct: r.Distinct, hasDistinct: r.HasDistinct,
			})
			touched = append(touched, e)
		}
		o23s[i].insert = time.Since(start)

		start = time.Now()
		for j, e := range touched {
			r := recs[j]
			e.merged.Absorb(r.Attr, r.Distinct, r.HasDistinct)
		}
		o23s[i].merge = time.Since(start)

		// The drained slice's job is done (contributions were copied into
		// table entries): it becomes the shard's spare for the next
		// sub-window. A shard this sub-window left untouched keeps its
		// spare.
		if recs != nil {
			s.spare = recs[:0]
		}
	})

	var o2sum, o3sum time.Duration
	for _, o := range o23s {
		o2sum += o.insert
		o3sum += o.merge
	}
	// Freeze the final delivery accounting — window assembly needs to
	// know whether recovery left gaps — folding in damage NoteLost
	// charged while the sub-window was open, then drop the arrival state.
	w.mu.Lock()
	w.times.Insert += o2sum
	w.times.Merge += o3sum
	if w.arrived {
		rel := w.reliability()
		rel.Missing += w.rel.Missing
		w.rel, w.hasRel = rel, true
	}
	w.finished = true
	w.seen, w.spikeSeen = seqSet{}, nil
	w.mu.Unlock()
	c.mu.Lock()
	if !c.hasFin || sw > c.lastFin {
		c.lastFin, c.hasFin = sw, true
	}
	c.mu.Unlock()
	c.obs.OpInsert.Observe(o2sum)
	c.obs.OpMerge.Observe(o3sum)

	wStart, ok := c.cfg.Plan.Ends(sw)
	if !ok {
		c.keepTimes(w)
		c.obs.Finish.Observe(time.Since(finStart))
		c.obs.Ring.Record(obs.StageFinished, sw, len(c.shards), int64(time.Since(finStart)))
		return nil
	}

	// O4: evaluate the query over each shard's slice of the merged
	// table, then fold.
	type o4 struct {
		detected []packet.FlowKey
		values   map[packet.FlowKey]uint64
		size     int
		scan     time.Duration
	}
	o4s := make([]o4, len(c.shards))
	c.forEachShard(func(i int, s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		start := time.Now()
		if c.cfg.CaptureValues {
			o4s[i].values = make(map[packet.FlowKey]uint64, len(s.table))
		}
		for k, e := range s.table {
			v := e.merged.Value()
			if c.detect(k, v) {
				o4s[i].detected = append(o4s[i].detected, k)
			}
			if o4s[i].values != nil {
				o4s[i].values[k] = v
			}
		}
		o4s[i].size = len(s.table)
		o4s[i].scan = time.Since(start)
	})

	start := time.Now()
	res := WindowResult{Start: wStart, End: sw}
	for s := wStart; s <= sw; s++ {
		sub := c.lookup(s)
		if sub == nil {
			continue
		}
		sub.mu.Lock()
		res.MissingAFRs += sub.rel.Missing
		res.ShedAFRs += sub.rel.Shed
		if sub.rel.Shed > 0 && sub.rel.Missing > 0 {
			res.Degraded = true
		}
		res.SpikePackets += sub.spikes
		sub.mu.Unlock()
	}
	res.Incomplete = res.MissingAFRs > 0
	total := 0
	for _, o := range o4s {
		total += o.size
	}
	if c.cfg.CaptureValues {
		res.Values = make(map[packet.FlowKey]uint64, total)
	}
	for _, o := range o4s {
		res.Detected = append(res.Detected, o.detected...)
		for k, v := range o.values {
			res.Values[k] = v
		}
	}
	sort.Slice(res.Detected, func(i, j int) bool {
		return res.Detected[i].Less(res.Detected[j])
	})
	fold := time.Since(start)

	o4sum := fold
	for _, o := range o4s {
		o4sum += o.scan
	}
	w.mu.Lock()
	w.times.Process += o4sum
	w.mu.Unlock()
	c.obs.OpProcess.Observe(o4sum)

	// O5: retire sub-windows that no future window needs — their
	// contributions leave the table and their records are deleted.
	if retire, ok := c.cfg.Plan.Retire(sw); ok {
		evicts := make([]time.Duration, len(c.shards))
		c.forEachShard(func(i int, s *shard) {
			s.mu.Lock()
			defer s.mu.Unlock()
			start := time.Now()
			c.evictShard(s, retire)
			evicts[i] = time.Since(start)
		})
		var o5sum time.Duration
		for _, dt := range evicts {
			o5sum += dt
		}
		w.mu.Lock()
		w.times.Evict += o5sum
		w.mu.Unlock()
		c.obs.OpEvict.Observe(o5sum)
		c.mu.Lock()
		for old := range c.subs {
			if old <= retire {
				delete(c.subs, old)
			}
		}
		c.mu.Unlock()
	}
	c.keepTimes(w)
	c.obs.Finish.Observe(time.Since(finStart))
	c.obs.Ring.Record(obs.StageFinished, sw, len(c.shards), int64(time.Since(finStart)))
	c.obs.Ring.Record(obs.StageWindowEmitted, sw, -1, int64(wStart))
	c.obs.Windows.Inc()
	if res.Incomplete {
		c.obs.IncompleteWindows.Inc()
	}
	if res.Degraded {
		c.obs.DegradedWindows.Inc()
	}
	return []WindowResult{res}
}

// keepTimes saves the just-finished sub-window's breakdown as lastTimes,
// so Times still answers for it after O5 retired its record.
func (c *Controller) keepTimes(w *subWindow) {
	w.mu.Lock()
	t := w.times
	w.mu.Unlock()
	c.mu.Lock()
	c.lastTimes = t
	c.mu.Unlock()
}

// detect applies the configured query predicate.
func (c *Controller) detect(k packet.FlowKey, v uint64) bool {
	if c.cfg.Detector != nil {
		return c.cfg.Detector(k, v)
	}
	return v >= c.cfg.Threshold
}

// evictShard removes contributions of sub-windows <= retire from one
// shard, rebuilding merged values from the surviving contributions, and
// deletes flows whose every contribution retired (the paper's O5:
// "updating the merged value and deleting the flows that only appear in
// the oldest sub-window"). Caller holds s.mu.
func (c *Controller) evictShard(s *shard, retire uint64) {
	for k, e := range s.table {
		kept := e.contribs[:0]
		for _, cb := range e.contribs {
			if cb.sw > retire {
				kept = append(kept, cb)
			}
		}
		if len(kept) == 0 {
			delete(s.table, k)
			continue
		}
		if len(kept) != len(e.contribs) {
			e.contribs = kept
			e.merged = afr.NewMergedWithCounter(c.cfg.Kind, c.cfg.DistinctCounter)
			for _, cb := range kept {
				e.merged.Absorb(cb.attr, cb.distinct, cb.hasDistinct)
			}
		} else {
			e.contribs = kept
		}
	}
}
