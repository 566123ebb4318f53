package faults

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenDrawDigest is the FNV-64a digest of every schedule predicate over
// goldenSeeds × indices 0..255 (see drawDigest). It pins the schedules'
// values, not just their determinism: every chaos test names its fault
// sequence by seed, so a refactor that changed a single draw would
// silently re-point every pinned seed at a different failure sequence.
const goldenDrawDigest uint64 = 0x9711fe5856c234ba

var goldenSeeds = []uint64{0, 1, 7, 42, 0xDEADBEEF}

// drawDigest folds the outcome of every stateless schedule predicate, and
// of the Injector's per-event draws, into one hash. Probabilities sit mid-range so each predicate both fires and
// holds; Fixed lists, sustained windows and latencies are included so
// every branch of every predicate contributes.
func drawDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bit := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for _, seed := range goldenSeeds {
		crash := CrashSchedule{Seed: seed, Prob: 0.3, Fixed: []uint64{5, 200}}
		sw := &SwitchSchedule{
			Reboot:     CrashSchedule{Seed: seed, Prob: 0.2, Fixed: []uint64{9}},
			Stall:      CrashSchedule{Seed: seed ^ 0x55, Prob: 0.25},
			StallDelay: 2,
		}
		rs := &RDMASchedule{Seed: seed, VerbError: 0.3, PSNDrop: 0.2,
			QPError:      CrashSchedule{Seed: seed + 3, Prob: 0.15, Fixed: []uint64{17}},
			MRInvalidate: CrashSchedule{Seed: seed + 4, Prob: 0.1},
		}
		ds := &DiskSchedule{Seed: seed, WriteEIO: 0.2, ReadEIO: 0.15,
			ShortWrite: 0.1, BitRot: 0.1, SlowIO: 0.3, ENOSPC: 0.05,
			ENOSPCStart: 100, ENOSPCLen: 20}
		dsDefault := &DiskSchedule{Seed: seed, SlowIO: 0.3}
		ps := &PartitionSchedule{Seed: seed, Symmetric: 0.1,
			Windows:   []PartitionWindow{{Start: 30, Len: 4}},
			RenewOnly: 0.2, CkptOnly: 0.25, Gray: 0.3, DelayNs: 7_000_000}
		psDefault := &PartitionSchedule{Seed: seed, Gray: 0.4}
		// The Injector's PRNG stream is pinned too: its per-event draw
		// count is fixed, so every seed's drop/duplicate/delay sequence
		// must stay put when a fault kind is added or retired.
		in := New(Config{Seed: int64(seed), Drop: 0.2, Duplicate: 0.2,
			MaxDuplicates: 3, Delay: 0.3, ExtraDelay: 5})
		for x := uint64(0); x < 256; x++ {
			a := in.Packet()
			bit(a.Drop)
			put(uint64(a.Duplicates))
			put(uint64(a.ExtraDelay))
			bit(crash.At(x))
			bit(sw.RebootAt(x))
			stall, delay := sw.StallAt(x)
			bit(stall)
			put(uint64(delay))
			for a := 0; a < 3; a++ {
				bit(rs.VerbErrorAt(x, a))
				bit(rs.PSNDropAt(x, a))
			}
			bit(rs.QPErrorAt(x))
			bit(rs.MRInvalidateAt(x))
			bit(ds.ReadEIOAt(x))
			bit(ds.WriteEIOAt(x))
			bit(ds.ShortWriteAt(x))
			bit(ds.BitRotAt(x))
			idx, mask := ds.BitRotSpot(x, 1+int(x%97))
			put(uint64(idx))
			put(uint64(mask))
			for _, d := range []*DiskSchedule{ds, dsDefault} {
				slow, lat := d.SlowIOAt(x)
				bit(slow)
				put(uint64(lat))
			}
			bit(ds.ENOSPCAt(x))
			bit(ps.RenewCut(x))
			bit(ps.CkptCut(x))
			for _, p := range []*PartitionSchedule{ps, psDefault} {
				gray, d := p.GrayAt(x)
				bit(gray)
				put(uint64(d))
			}
		}
	}
	return h.Sum64()
}

// TestGoldenDraws pins every schedule predicate's values for fixed seeds.
// A mismatch means some seed now replays a different fault sequence than
// the one its chaos test was written against.
func TestGoldenDraws(t *testing.T) {
	if got := drawDigest(); got != goldenDrawDigest {
		t.Fatalf("schedule draw digest = %#x, want %#x — a fault draw changed value", got, goldenDrawDigest)
	}
}
