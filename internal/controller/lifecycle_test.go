package controller

import (
	"fmt"
	"hash/fnv"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// snapshotDigest is the FNV-1a 64 digest of the controller's encoded
// snapshot: the bytes a checkpoint would write.
func snapshotDigest(c *Controller) uint64 {
	h := fnv.New64a()
	h.Write(wire.EncodeSnapshot(nil, c.ExportState()))
	return h.Sum64()
}

func trigger(sw uint64, keys uint32) *packet.Packet {
	return &packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: sw, KeyCount: keys}}
}

func spike(key int, sw uint64, seq uint32) *packet.Packet {
	return &packet.Packet{Key: fk(key), Seq: seq, OW: packet.OWHeader{HasSubWindow: true, SubWindow: sw}}
}

// TestSnapshotGoldenDigest pins the snapshot bytes across every stage of
// the per-sub-window lifecycle — open, finished, lost before any
// announcement, shed while open and after finishing, resync-filled,
// retransmitted, spiked, and retired — at shard counts 1 and 4. The
// digests were recorded from the controller that kept this state in five
// separate maps; a change to how the state is held must not move a byte.
//
// Pending records of one sub-window are kept free of equal sequence
// numbers (spike records carry sequence 0), so the expected bytes do not
// depend on how a sort orders ties.
func TestSnapshotGoldenDigest(t *testing.T) {
	want := []uint64{
		0x78f9cddf20d1101f, 0xf53c21f242600d28, 0xccdadbf327cf314a,
		0x75d7b0c5f586a813, 0x991d6340ab248472,
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Frequency, Threshold: 4, Shards: shards})
			var got []uint64

			// sw0 open: ten AFRs, an announcement of twelve, seq 10
			// recovered by retransmission, two records shed.
			for i := 0; i < 10; i++ {
				c.Receive(afrPkt(rec(i, 0, i+1, i)))
			}
			c.Receive(trigger(0, 12))
			c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWRetransmit, AFRs: []packet.AFR{rec(10, 0, 3, 10)}}})
			c.NoteShed(0, 2)
			// sw1 open with a spike: seq 0 never arrives, so the spike's
			// pending record is the only one with sequence 0.
			c.Receive(afrPkt(rec(1, 1, 2, 1), rec(2, 1, 5, 2), rec(3, 1, 1, 3)))
			c.Receive(trigger(1, 4))
			if !c.IngestSpike(spike(7, 1, 99), 6) {
				t.Fatal("spike into an open sub-window was refused")
			}
			// sw3: lost before any announcement.
			c.NoteLost(3, 1)
			got = append(got, snapshotDigest(c))

			// sw0 finished, then shed against after finishing.
			c.FinishSubWindow(0)
			c.NoteShed(0, 1)
			got = append(got, snapshotDigest(c))

			// sw1 finished; finishing sw4 resync-fills sw2 (never
			// announced: charged Missing) and sw3 (already charged).
			c.FinishSubWindow(1)
			c.Receive(afrPkt(rec(4, 4, 9, 0), rec(5, 4, 1, 1)))
			c.Receive(trigger(4, 2))
			c.FinishSubWindow(4)
			got = append(got, snapshotDigest(c))

			// sw5 open with a lost charge on top of its arrivals, and sw6
			// lost before any announcement, then shed against.
			c.Receive(afrPkt(rec(1, 5, 4, 0), rec(6, 5, 2, 1)))
			c.NoteLost(5, 2)
			c.NoteLost(6, 1)
			c.NoteShed(6, 3)
			got = append(got, snapshotDigest(c))

			// Finishing sw5 and sw6 retires everything through sw4.
			c.FinishSubWindow(5)
			c.FinishSubWindow(6)
			got = append(got, snapshotDigest(c))

			for i := range want {
				if got[i] != want[i] {
					t.Errorf("stage %d: snapshot digest %#x, want %#x", i, got[i], want[i])
				}
			}
		})
	}
}

// TestLateAFRAfterFinishIsDuplicate: once a sub-window is finished its
// record takes no more arrivals. A late duplicate (or late fresh record,
// or late trigger) must leave the frozen accounting and the snapshot
// untouched, and must not bring a retired sub-window's record back: over
// 100 sub-windows, each chased by late AFRs, the controller holds at most
// Plan.Size+1 records.
func TestLateAFRAfterFinishIsDuplicate(t *testing.T) {
	plan := window.SlidingPlan(3, 1)
	c := New(Config{Plan: plan, Kind: afr.Frequency, Threshold: 4, Shards: 4})
	c.Receive(afrPkt(rec(1, 0, 1, 0)))
	c.Receive(trigger(0, 1))
	c.FinishSubWindow(0)
	rel := c.Reliability(0)
	if rel.Expected != 1 || rel.Received != 1 || rel.Missing != 0 {
		t.Fatalf("finished reliability = %+v", rel)
	}
	digest := snapshotDigest(c)

	c.Receive(afrPkt(rec(1, 0, 1, 0)))          // late duplicate
	c.IngestAFRs([]packet.AFR{rec(2, 0, 1, 1)}) // late, never seen
	c.Receive(trigger(0, 5))                    // late announcement
	if got := c.Reliability(0); got != rel {
		t.Fatalf("late AFRs changed reliability: %+v, want %+v", got, rel)
	}
	if got := snapshotDigest(c); got != digest {
		t.Fatalf("late AFRs changed the snapshot: %#x, want %#x", got, digest)
	}

	for sw := 1; sw <= 100; sw++ {
		c.Receive(afrPkt(rec(sw, sw, 1, 0)))
		c.Receive(trigger(uint64(sw), 1))
		c.FinishSubWindow(uint64(sw))
		for late := 0; late <= sw; late++ {
			c.Receive(afrPkt(rec(late, late, 1, 0)))
		}
		c.mu.Lock()
		n := len(c.subs)
		c.mu.Unlock()
		if n > plan.Size+1 {
			t.Fatalf("after finishing sw%d the controller holds %d sub-window records, want <= %d", sw, n, plan.Size+1)
		}
	}
}

// TestTimesAfterRetiringFinish: a tumbling plan retires a window's last
// sub-window in the same finish that completes it; its O1–O5 breakdown
// must still be readable right after that finish.
func TestTimesAfterRetiringFinish(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(2), Kind: afr.Frequency, Threshold: 1, Shards: 2})
	for sw := 0; sw < 2; sw++ {
		recs := make([]packet.AFR, 100)
		for i := range recs {
			recs[i] = rec(i, sw, 1, i)
		}
		c.Receive(afrPkt(recs...))
		c.FinishSubWindow(uint64(sw))
	}
	if ts := c.Times(1); ts.Insert <= 0 || ts.Process <= 0 || ts.Evict <= 0 {
		t.Fatalf("retired sub-window lost its breakdown: %+v", ts)
	}
}
