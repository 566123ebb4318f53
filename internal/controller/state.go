// Controller state export and restore for the durability layer
// (internal/durable). A snapshot taken at a sub-window boundary plus the
// write-ahead log of everything ingested since is enough to rebuild the
// controller to the exact pre-crash state: merged values are rebuilt by
// re-absorbing the stored contributions (every merge kind is
// order-insensitive, so the rebuild is exact), and sequence-number dedup
// makes replaying batches the snapshot already covers harmless.

package controller

import (
	"sort"

	"omniwindow/internal/afr"
	"omniwindow/internal/metrics"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// NoteShed records that admission control dropped n AFRs destined for a
// sub-window (attributed by header peek before the discard). Notes for a
// still-open sub-window flow into its final accounting; notes for an
// already-finished one amend the retained reliability snapshot but cannot
// retroactively change windows that were already emitted.
func (c *Controller) NoteShed(sw uint64, n int) {
	if n <= 0 {
		return
	}
	c.obs.Shed.Add(int64(n))
	c.obs.Ring.Record(obs.StageShed, sw, -1, int64(n))
	w := c.lookup(sw)
	if w == nil {
		return
	}
	w.mu.Lock()
	switch {
	case !w.finished && w.arrived:
		w.shed += n
	case w.hasRel:
		w.rel.Shed += n
	}
	w.mu.Unlock()
}

// NoteLost records that n units of a sub-window's durable record are
// unrecoverable (quarantined WAL segments, a degraded-durability gap the
// standby cannot replay). Unlike shed — which is pressure the live path
// already accounted — lost is damage: it always lands in the sub-window's
// Missing tally, creating the record if the sub-window was never
// announced, so every window spanning it assembles as Incomplete instead
// of silently wrong. A charge against an open sub-window is folded into
// its frozen accounting when it finishes.
func (c *Controller) NoteLost(sw uint64, n int) {
	if n <= 0 {
		return
	}
	w := c.record(sw)
	w.mu.Lock()
	w.rel.Missing += n
	w.hasRel = true
	w.mu.Unlock()
}

// LastFinished reports the highest sub-window FinishSubWindow has
// completed; ok is false before the first finish.
func (c *Controller) LastFinished() (sw uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFin, c.hasFin
}

// ExportState snapshots the controller's complete restorable state: the
// key-value table, routed-but-unmerged records, open sub-windows' arrival
// state and the delivery accounting of finished sub-windows and of open
// ones already charged damage. Output ordering is fully deterministic
// (keys by FlowKey.Less, everything else by sub-window and sequence), so
// encoding the snapshot is byte-stable regardless of shard count or
// ingest interleaving. ThroughLSN is left zero; the durable layer stamps
// it with its own log position.
func (c *Controller) ExportState() *wire.Snapshot {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	s := &wire.Snapshot{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for k, e := range sh.table {
			se := wire.SnapEntry{Key: k, Contribs: make([]wire.SnapContrib, len(e.contribs))}
			for i, cb := range e.contribs {
				se.Contribs[i] = wire.SnapContrib{
					SW: cb.sw, Attr: cb.attr, Distinct: cb.distinct, HasDistinct: cb.hasDistinct,
				}
			}
			s.Entries = append(s.Entries, se)
		}
		sh.mu.Unlock()
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		return s.Entries[i].Key.Less(s.Entries[j].Key)
	})

	c.mu.Lock()
	s.LastFinished, s.HasFinished = c.lastFin, c.hasFin
	subs := make([]*subWindow, 0, len(c.subs))
	for _, w := range c.subs {
		subs = append(subs, w)
	}
	c.mu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].sw < subs[j].sw })

	for _, w := range subs {
		from := len(s.Pending)
		for i, sh := range c.shards {
			sh.mu.Lock()
			s.Pending = append(s.Pending, w.pending[i]...)
			sh.mu.Unlock()
		}
		run := s.Pending[from:]
		sort.SliceStable(run, func(i, j int) bool { return run[i].Seq < run[j].Seq })

		w.mu.Lock()
		if !w.finished && w.arrived {
			sd := wire.SnapDedup{
				SW:        w.sw,
				Expected:  int32(w.expected),
				Recovered: uint32(w.recovered),
				Shed:      uint32(w.shed),
			}
			if n := w.seen.size(); n > 0 {
				// appendSorted iterates the bitset in ascending order, so the
				// snapshot bytes stay identical to the sorted-map encoding.
				sd.Seen = w.seen.appendSorted(make([]uint32, 0, n))
			}
			s.Dedups = append(s.Dedups, sd)
		}
		if w.hasRel {
			r := w.rel
			s.Rels = append(s.Rels, wire.SnapRel{
				SW:        w.sw,
				Expected:  int32(r.Expected),
				Received:  uint32(r.Received),
				Recovered: uint32(r.Recovered),
				Missing:   uint32(r.Missing),
				Shed:      uint32(r.Shed),
			})
		}
		w.mu.Unlock()
	}
	return s
}

// RestoreState replaces the controller's state with a snapshot's. Rows are
// re-routed by hash, so a snapshot exported at one shard count restores
// correctly at another. The configuration (plan, kind, detector) is NOT
// carried by snapshots — the restored controller must be built with the
// same Config the exporter used, or merged values will diverge.
func (c *Controller) RestoreState(s *wire.Snapshot) {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.table = make(map[packet.FlowKey]*entry)
		sh.mu.Unlock()
	}
	for _, se := range s.Entries {
		sh := c.shards[c.shardIndex(se.Key)]
		e := &entry{
			contribs: make([]contrib, len(se.Contribs)),
			merged:   afr.NewMergedWithCounter(c.cfg.Kind, c.cfg.DistinctCounter),
		}
		for i, cb := range se.Contribs {
			e.contribs[i] = contrib{
				sw: cb.SW, attr: cb.Attr, distinct: cb.Distinct, hasDistinct: cb.HasDistinct,
			}
			e.merged.Absorb(cb.Attr, cb.Distinct, cb.HasDistinct)
		}
		sh.mu.Lock()
		sh.table[se.Key] = e
		sh.mu.Unlock()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = make(map[uint64]*subWindow)
	c.lastFin, c.hasFin = s.LastFinished, s.HasFinished
	for _, r := range s.Pending {
		si := c.shardIndex(r.Key)
		w := c.recordLocked(r.SubWindow)
		w.pending[si] = append(w.pending[si], r)
	}
	for _, sd := range s.Dedups {
		if c.hasFin && sd.SW <= c.lastFin {
			continue // a finished sub-window keeps no arrival state
		}
		w := c.recordLocked(sd.SW)
		w.arrived = true
		w.expected = int(sd.Expected)
		w.recovered = int(sd.Recovered)
		w.shed = int(sd.Shed)
		for _, seq := range sd.Seen {
			w.seen.add(seq)
		}
	}
	for _, sr := range s.Rels {
		w := c.recordLocked(sr.SW)
		w.rel = metrics.Reliability{
			Expected:  int(sr.Expected),
			Received:  int(sr.Received),
			Recovered: int(sr.Recovered),
			Missing:   int(sr.Missing),
			Shed:      int(sr.Shed),
		}
		w.hasRel = true
	}
}
