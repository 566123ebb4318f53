package rdma

import (
	"sync"
	"time"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
)

// This file is the fault-tolerant transport over the raw verb substrate in
// rdma.go: a queue-pair state machine (RTS → Error → Recovering → RTS)
// with completion-queue error reporting, RNR-style bounded retry for
// transient verb errors, a PSN-sequenced replay window for in-flight loss
// (the controller detects gaps at drain time and NACKs them back), and
// memory-region re-registration with AddressMAT rebuild after QP resets or
// controller failover. When the QP is down or retries exhaust, Send
// reports not-delivered and the deployment reroutes the record through the
// ordinary packet C&R path mid-sub-window — the controller's per-seq dedup
// makes the handoff exact.
//
// Loss accounting follows the repo-wide contract: every record the
// transport irrecoverably drops (cold-buffer overflow, replay-window
// eviction, invalidation of unreplayable verbs) is charged to the OnShed
// hook — Shed measures pressure whether or not the record is repaired via
// fallback, and Missing measures the damage left after recovery.

// QPState is the queue pair's lifecycle state.
type QPState uint8

const (
	// QPRts: ready to send — verbs flow.
	QPRts QPState = iota
	// QPError: the CQ reported a persistent failure (or the fault
	// schedule fired an async QP error); every send falls back to the
	// packet path until recovery succeeds at a boundary.
	QPError
	// QPRecovering: boundary recovery in progress — the AddressMAT is
	// being invalidated and rebuilt and pending verbs replayed; the
	// state commits back to RTS when the boundary's drain completes.
	QPRecovering
)

var qpStateNames = [...]string{
	QPRts:        "RTS",
	QPError:      "ERROR",
	QPRecovering: "RECOVERING",
}

// String names the state as the QP state gauge and owtop display it.
func (s QPState) String() string {
	if int(s) < len(qpStateNames) {
		return qpStateNames[s]
	}
	return "unknown"
}

// TransportConfig sizes and parameterizes a Transport.
type TransportConfig struct {
	// Rows, Lanes, BufCap size the registered memory region (hot-key
	// rows × per-sub-window lanes, plus the cold append buffer).
	Rows, Lanes, BufCap int
	// VerbRetries is how many RNR-style retries follow a verb's first
	// failed attempt before the CQ error becomes persistent and the QP
	// faults to Error. 0 means the default (3); negative disables
	// retries entirely.
	VerbRetries int
	// RNRBackoff is the virtual wait before each retry, doubling per
	// attempt (capped at 32× the base). 0 means the default (2µs).
	// The accumulated wait is charged to the C&R budget via
	// TakeRetryWait.
	RNRBackoff time.Duration
	// ReplayDepth bounds the PSN replay window: how many unacked verbs
	// the transport can replay after in-flight loss or region
	// invalidation. Older verbs are evicted; an evicted unapplied verb
	// is permanently lost (charged to OnShed). 0 means the default
	// (8192).
	ReplayDepth int
	// Faults is the deterministic fault schedule (nil = healthy) — the
	// transport's only source of injected verb, PSN, QP and region
	// faults.
	Faults *faults.RDMASchedule
	// OnShed is charged whenever the transport irrecoverably drops
	// records destined for a sub-window (overflow, eviction,
	// invalidation). Nil ignores the charge.
	OnShed func(sw uint64, n int)
}

// TransportStats counts the transport's fault and recovery events.
type TransportStats struct {
	// VerbErrors / VerbRetries count injected completion errors and the
	// RNR retries they triggered.
	VerbErrors, VerbRetries int
	// PSNDrops counts verbs lost in flight; Replayed counts verbs
	// re-applied by the NACK/replay loop.
	PSNDrops, Replayed int
	// Fallbacks counts records handed back to the packet C&R path.
	Fallbacks int
	// Overflows counts cold-buffer overflow rejections.
	Overflows int
	// Lost counts records the transport dropped irrecoverably (they are
	// also charged to OnShed and surface as missing seqs).
	Lost int
	// QPErrors / QPRecoveries count Error transitions and successful
	// boundary recoveries.
	QPErrors, QPRecoveries int
	// MRInvalidations counts schedule-driven region destructions;
	// Reregistrations counts fresh registrations (invalidation or
	// failover); MATRebuilds counts AddressMAT invalidate+rebuild
	// passes (every recovery or re-registration runs one).
	MRInvalidations, Reregistrations, MATRebuilds int
}

// pendingVerb is one unacked verb in the PSN replay window.
type pendingVerb struct {
	rec      packet.AFR
	psn      uint32
	idx      uint64 // verb index parameterizing the fault schedule
	attempts int    // highest attempt number drawn so far
	hot      bool
	applied  bool // false: lost in flight (a PSN gap) or wiped by invalidation
}

// Transport owns the RDMA collection plumbing for one deployment: the
// registered memory region, the RNIC, the switch-side AddressMAT mirror,
// the hot-key row table and the QP state machine. Methods are safe for
// concurrent use (the deployment drives it single-threaded, but metric
// scrapes read state and stats concurrently).
type Transport struct {
	mu  sync.Mutex
	mr  *MemoryRegion
	nic *NIC
	mat *AddressMAT

	state QPState

	rows   map[packet.FlowKey]int    // hot key → row base address
	hotSeq map[packet.FlowKey]uint32 // applied hot writes this drain interval → true seq

	pending     []pendingVerb
	unprotected map[uint64]int // applied verbs evicted from the window, per sub-window
	psnScratch  []uint32

	nextPSN     uint32
	verbIdx     uint64
	verbRetries int
	rnrBackoff  time.Duration
	replayDepth int
	retryWait   time.Duration

	faults *faults.RDMASchedule
	onShed func(sw uint64, n int)

	stats TransportStats
}

// NewTransport registers a memory region and brings the QP up in RTS.
func NewTransport(cfg TransportConfig) *Transport {
	mr := NewMemoryRegion(cfg.Rows, cfg.Lanes, cfg.BufCap)
	t := &Transport{
		mr:          mr,
		nic:         NewNIC(mr),
		mat:         NewAddressMAT(cfg.Rows),
		rows:        make(map[packet.FlowKey]int),
		hotSeq:      make(map[packet.FlowKey]uint32),
		unprotected: make(map[uint64]int),
		faults:      cfg.Faults,
		onShed:      cfg.OnShed,
	}
	switch {
	case cfg.VerbRetries < 0:
		t.verbRetries = 0
	case cfg.VerbRetries == 0:
		t.verbRetries = 3
	default:
		t.verbRetries = cfg.VerbRetries
	}
	if t.rnrBackoff = cfg.RNRBackoff; t.rnrBackoff <= 0 {
		t.rnrBackoff = 2 * time.Microsecond
	}
	if t.replayDepth = cfg.ReplayDepth; t.replayDepth <= 0 {
		t.replayDepth = 8192
	}
	return t
}

// State returns the QP state.
func (t *Transport) State() QPState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Stats returns a snapshot of the fault/recovery counters.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// NIC exposes the RNIC (verb counters for the experiments).
func (t *Transport) NIC() *NIC { return t.nic }

// MATLen reports the AddressMAT's entry count.
func (t *Transport) MATLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mat.Len()
}

// PendingLen reports the replay window's occupancy.
func (t *Transport) PendingLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// TakeRetryWait returns and resets the accumulated virtual RNR backoff,
// for the deployment to charge to the C&R budget.
func (t *Transport) TakeRetryWait() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.retryWait
	t.retryWait = 0
	return w
}

func (t *Transport) shed(sw uint64, n int) {
	if t.onShed != nil && n > 0 {
		t.onShed(sw, n)
	}
}

// Promote installs a hot key: a row is allocated and its base address
// published to the switch-side AddressMAT. Reports false when the row
// table is exhausted (the key stays cold).
func (t *Transport) Promote(k packet.FlowKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rows[k]; ok {
		return true
	}
	base, ok := t.mr.AllocRow()
	if !ok {
		return false
	}
	t.rows[k] = base
	t.mat.Insert(k, base)
	return true
}

// Demote retires a hot key: the MAT entry is withdrawn so the switch
// sends the key cold again. (The row itself is not reclaimed — the
// allocator is monotonic, matching the switch-side address arithmetic.)
func (t *Transport) Demote(k packet.FlowKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mat.Delete(k)
	delete(t.rows, k)
}

// HotRows reports the number of installed hot keys.
func (t *Transport) HotRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// track enrolls one sent verb in the PSN replay window, evicting the
// oldest entry when the window is full. Caller holds t.mu.
func (t *Transport) track(rec packet.AFR, hot bool, idx uint64, attempt int, applied bool) {
	if len(t.pending) >= t.replayDepth {
		e := t.pending[0]
		n := copy(t.pending, t.pending[1:])
		t.pending = t.pending[:n]
		if !e.applied {
			// Evicted before ever reaching the region: permanently
			// lost — charged to shed, surfaces as a missing seq.
			t.shed(e.rec.SubWindow, 1)
			t.stats.Lost++
		} else {
			// Applied but no longer replayable: lost only if the
			// region is invalidated before the next drain.
			t.unprotected[e.rec.SubWindow]++
		}
	}
	t.pending = append(t.pending, pendingVerb{
		rec: rec, psn: t.nextPSN, idx: idx, attempts: attempt, hot: hot, applied: applied,
	})
	t.nextPSN++
}

// Send transmits one AFR over the RDMA path. hot reports whether the
// hot-row fast path carried it; delivered=false means the transport could
// not take the record (QP down, retries exhausted, or cold-buffer
// overflow) and the caller must reroute it through the packet C&R path.
// The steady-state success path performs no allocation.
func (t *Transport) Send(rec packet.AFR) (hot, delivered bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != QPRts {
		t.stats.Fallbacks++
		return false, false
	}
	base, isHot := t.rows[rec.Key]
	addr := base + int(rec.SubWindow)%t.mr.Lanes() // the hot row's lane; unused by cold appends
	idx := t.verbIdx
	t.verbIdx++
	backoff := t.rnrBackoff
	maxBackoff := t.rnrBackoff * 32
	for a := 0; a <= t.verbRetries; a++ {
		if a > 0 {
			// RNR-style retry: back off (virtual time, charged to the
			// C&R budget) and redraw the verb's fate.
			t.stats.VerbRetries++
			t.retryWait += backoff
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if t.faults.VerbErrorAt(idx, a) {
			t.stats.VerbErrors++
			continue
		}
		// The request left the requester successfully; in-flight loss
		// surfaces as a PSN gap at the next drain, not as a CQ error.
		if t.faults.PSNDropAt(idx, a) {
			t.stats.PSNDrops++
			t.track(rec, isHot, idx, a, false)
			return isHot, true
		}
		if isHot {
			if t.nic.Write(addr, rec.Attr) != nil {
				t.stats.VerbErrors++
				continue
			}
			t.hotSeq[rec.Key] = rec.Seq
		} else if t.nic.Append(rec) != nil {
			// Cold-buffer overflow: the record never lands in the
			// region. Charge shed accounting and hand it back for the
			// packet path.
			t.stats.Overflows++
			t.stats.Fallbacks++
			t.shed(rec.SubWindow, 1)
			return false, false
		}
		t.track(rec, isHot, idx, a, true)
		return isHot, true
	}
	// Retries exhausted: the CQ reports a persistent completion error,
	// the QP faults to Error, and this record — plus every subsequent
	// send until boundary recovery — falls back to the packet path.
	t.state = QPError
	t.stats.QPErrors++
	t.stats.Fallbacks++
	return false, false
}

// BeginBoundary applies boundary-driven faults that strike before a
// sub-window's collection traffic: an async QP error makes every send of
// the upcoming C&R round fall back mid-sub-window.
func (t *Transport) BeginBoundary(sw uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == QPRts && t.faults.QPErrorAt(sw) {
		t.state = QPError
		t.stats.QPErrors++
	}
}

// BeginCollect runs the pre-drain recovery step for boundary sw: a
// scheduled region invalidation destroys applied-but-undrained verbs
// (re-registering the region and marking the replay window for re-apply),
// and a QP in Error attempts recovery — refused during a scheduled
// outage, otherwise transitioning Error → Recovering with the AddressMAT
// invalidated and rebuilt. Recovering commits back to RTS when Drain
// completes the boundary.
func (t *Transport) BeginCollect(sw uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.faults.MRInvalidateAt(sw) {
		t.stats.MRInvalidations++
		t.reregisterLocked()
	}
	if t.state == QPError && !t.faults.OutageAt(sw) {
		t.state = QPRecovering
		t.stats.QPRecoveries++
		t.rebuildMATLocked()
	}
}

// Reregister performs a full memory-region re-registration: a promoted
// standby (or a QP reset) owns fresh memory, so rows are re-allocated,
// the AddressMAT is invalidated and rebuilt with the new addresses, and
// every applied-but-undrained verb is marked for replay into the new
// region. Records that already fell out of the replay window are
// permanently lost and charged to shed.
func (t *Transport) Reregister() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reregisterLocked()
}

func (t *Transport) reregisterLocked() {
	t.stats.Reregistrations++
	t.mr.Invalidate()
	for k := range t.rows {
		base, ok := t.mr.AllocRow()
		if !ok {
			// Unreachable with matching capacities; drop the key to
			// cold rather than alias a stale address.
			t.mat.Delete(k)
			delete(t.rows, k)
			continue
		}
		t.rows[k] = base
	}
	t.rebuildMATLocked()
	// Applied verbs died with the old registration: replay them into the
	// fresh region. Applied verbs already evicted from the replay window
	// cannot come back — they are lost for good.
	for i := range t.pending {
		t.pending[i].applied = false
	}
	clear(t.hotSeq)
	for sw, n := range t.unprotected {
		t.shed(sw, n)
		t.stats.Lost += n
	}
	clear(t.unprotected)
}

// rebuildMATLocked republishes every hot key's current base address —
// the switch re-resolves hot-key destinations after a recovery or
// re-registration. Caller holds t.mu.
func (t *Transport) rebuildMATLocked() {
	t.stats.MATRebuilds++
	for k, base := range t.rows {
		t.mat.Insert(k, base)
	}
}

// MissingPSNs lists the PSNs of verbs sent but never applied — the gaps
// the controller-side scan detects at collect time. It feeds
// controller.RecoverSubWindow as the `missing` hook.
func (t *Transport) MissingPSNs() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []uint32
	for i := range t.pending {
		if !t.pending[i].applied {
			out = append(out, t.pending[i].psn)
		}
	}
	return out
}

// Replay re-executes the NACKed PSNs' verbs against the region, redrawing
// each attempt's fate from the fault schedule. It returns how many verbs
// applied. A QP in Error cannot replay (the deployment falls back
// instead); Recovering can — replay is part of recovery.
func (t *Transport) Replay(psns []uint32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == QPError {
		return 0
	}
	applied := 0
	for _, psn := range psns {
		for i := range t.pending {
			e := &t.pending[i]
			if e.psn != psn || e.applied {
				continue
			}
			e.attempts++
			if t.faults.VerbErrorAt(e.idx, e.attempts) {
				t.stats.VerbErrors++
				break
			}
			if t.faults.PSNDropAt(e.idx, e.attempts) {
				t.stats.PSNDrops++
				break
			}
			if e.hot {
				addr := t.rows[e.rec.Key] + int(e.rec.SubWindow)%t.mr.Lanes()
				if t.nic.Write(addr, e.rec.Attr) != nil {
					t.stats.VerbErrors++
					break
				}
				t.hotSeq[e.rec.Key] = e.rec.Seq
			} else if t.nic.Append(e.rec) != nil {
				break // buffer full again: stays unapplied for fallback
			}
			e.applied = true
			applied++
			t.stats.Replayed++
			break
		}
	}
	return applied
}

// TakeUnapplied removes and returns the records whose verbs never
// applied — the replay budget is exhausted (or the QP is down) and the
// deployment hands them to the packet C&R path, mid-sub-window, with
// their original sequence numbers so the controller's dedup keeps the
// transport switch exact.
func (t *Transport) TakeUnapplied() []packet.AFR {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []packet.AFR
	kept := t.pending[:0]
	for _, e := range t.pending {
		if e.applied {
			kept = append(kept, e)
		} else {
			out = append(out, e.rec)
			t.stats.Fallbacks++
		}
	}
	t.pending = kept
	return out
}

// Drain consumes boundary sw's delivered records: the cold buffer is
// handed off wholesale and each hot key written this interval is read
// back from its per-sub-window lane with its true enumeration sequence
// number (then the lane resets for the next same-lane sub-window). The
// replay window acks — any verb still unapplied here (the caller already
// took the fallback set) is permanently lost and charged to shed — and a
// Recovering QP commits back to RTS.
func (t *Transport) Drain(sw uint64) (cold, hot []packet.AFR) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cold = t.nic.Drain()
	lane := int(sw) % t.mr.Lanes()
	for k, seq := range t.hotSeq {
		base, ok := t.rows[k]
		if !ok {
			continue
		}
		hot = append(hot, packet.AFR{Key: k, Attr: t.mr.slots[base+lane], SubWindow: sw, Seq: seq})
		t.mr.ResetLane(base, lane)
	}
	for _, e := range t.pending {
		if !e.applied {
			t.shed(e.rec.SubWindow, 1)
			t.stats.Lost++
		}
	}
	t.pending = t.pending[:0]
	clear(t.hotSeq)
	clear(t.unprotected)
	if t.state == QPRecovering {
		t.state = QPRts
	}
	return cold, hot
}
