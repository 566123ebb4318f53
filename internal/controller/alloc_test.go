package controller

import (
	"fmt"
	"runtime"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// These tests pin the ingest hot path at zero steady-state allocations
// per operation, mirroring the obs package's no-op pins: once the shard
// pending slices, dedup bitset and ingest scratch are warm, decoding a
// frame and ingesting its records must produce no garbage at all. A
// regression here is a GC-pressure regression proportional to traffic.
//
// Priming strategy: one large batch on a warm-up sub-window, finished,
// leaves every shard a spare pending slice far larger than the measured
// runs fill; one high sequence number then opens the measured sub-window
// and sizes its dedup bitset, so measured (lower) sequences never grow its
// word array. testing.AllocsPerRun's own warm-up call covers the
// remaining first-touch map entries.

// allocSW is the measured sub-window; allocPrime finishes the one before.
// Measured seqs must stay below allocPrimeBase.
const (
	allocSW        = 1
	allocPrimeBase = 1 << 20
)

func allocPrime(c *Controller, n int) {
	recs := make([]packet.AFR, n)
	for i := range recs {
		recs[i] = packet.AFR{Key: fk(i), SubWindow: allocSW - 1, Attr: 1, Seq: uint32(allocPrimeBase + i)}
	}
	c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}})
	c.FinishSubWindow(allocSW - 1)
	c.IngestAFRs([]packet.AFR{{Key: fk(0), SubWindow: allocSW, Attr: 1, Seq: allocPrimeBase}})
}

func newAllocController() *Controller {
	return New(Config{
		Plan: window.Tumbling(8), Kind: afr.Frequency, Threshold: 1 << 62,
		Shards: 4,
	})
}

// TestDecodeIngestZeroAlloc pins the full collector worker loop body —
// wire.DecodeInto into a long-lived packet, then Controller.Receive — at
// zero allocations per frame in the steady state.
func TestDecodeIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const (
		batch = 16
		runs  = 500
	)
	c := newAllocController()
	allocPrime(c, 72_000) // ~18k/shard spares

	// Pre-encode one frame per run, each with fresh sequence numbers (all
	// below the primed range) so every measured record takes the admit
	// path, not the duplicate path.
	frames := make([][]byte, runs+1)
	seq := uint32(0)
	for i := range frames {
		recs := make([]packet.AFR, batch)
		for j := range recs {
			recs[j] = packet.AFR{Key: fk(int(seq)), SubWindow: allocSW, Attr: 1, Seq: seq}
			seq++
		}
		enc, err := wire.Encode(nil, &packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = enc
	}

	var p packet.Packet
	var decodeErr error
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := wire.DecodeInto(&p, frames[i%len(frames)]); err != nil {
			decodeErr = err
			return
		}
		i++
		c.Receive(&p)
	})
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if allocs != 0 {
		t.Fatalf("decode→ingest allocated %v per frame in steady state, want 0", allocs)
	}
}

// TestIngestAFRsZeroAlloc pins the direct (RDMA-path) batch ingest at
// zero allocations per batch in the steady state.
func TestIngestAFRsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const (
		batch = 16
		runs  = 500
	)
	c := newAllocController()
	allocPrime(c, 72_000)

	batches := make([][]packet.AFR, runs+1)
	seq := uint32(0)
	for i := range batches {
		recs := make([]packet.AFR, batch)
		for j := range recs {
			recs[j] = packet.AFR{Key: fk(int(seq)), SubWindow: allocSW, Attr: 1, Seq: seq}
			seq++
		}
		batches[i] = recs
	}

	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.IngestAFRs(batches[i%len(batches)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("IngestAFRs allocated %v per batch in steady state, want 0", allocs)
	}
}

// TestNextSubWindowIngestZeroAlloc pins reuse across sub-windows: once a
// sub-window has been ingested and finished, each shard keeps the pending
// slice it drained, so ingesting the next sub-window's records — the same
// flows, hence the same per-shard counts — appends into that memory and
// allocates nothing after the batch that opens the sub-window.
func TestNextSubWindowIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const (
		flows = 4096
		batch = 16
	)
	c := newAllocController()
	// Sequences descend, so the batch that opens a sub-window carries its
	// highest sequence numbers and sizes the dedup bitset at once.
	batches := func(sw uint64) [][]packet.AFR {
		var out [][]packet.AFR
		for at := 0; at < flows; at += batch {
			recs := make([]packet.AFR, batch)
			for j := range recs {
				f := at + j
				recs[j] = packet.AFR{Key: fk(f), SubWindow: sw, Attr: 1, Seq: uint32(flows - 1 - f)}
			}
			out = append(out, recs)
		}
		return out
	}
	for _, b := range batches(0) {
		c.IngestAFRs(b)
	}
	c.FinishSubWindow(0)

	next := batches(1)
	c.IngestAFRs(next[0]) // opens sub-window 1's record
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range next[1:] {
		c.IngestAFRs(b)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("ingesting the next sub-window allocated %d times over %d batches, want 0", n, len(next)-1)
	}
}

// TestBatchSizeDifferential: the batched ingest path must be a pure
// performance change — record-at-a-time, whole-batch, packet-sized
// chunks all yield identical window results and reliability accounting
// for the same record stream.
func TestBatchSizeDifferential(t *testing.T) {
	const (
		flows = 500
		subs  = 4
	)
	stream := make([]packet.AFR, 0, flows*subs)
	for sw := 0; sw < subs; sw++ {
		for f := 0; f < flows; f++ {
			stream = append(stream, packet.AFR{
				Key: fk(f % 97), SubWindow: uint64(sw),
				Attr: uint64(f%7 + 1), Seq: uint32(sw*flows + f),
			})
		}
	}

	run := func(chunk int) ([]WindowResult, []string) {
		c := New(Config{
			Plan: window.Tumbling(2), Kind: afr.Frequency, Threshold: 40,
			Shards: 4, CaptureValues: true,
		})
		for at := 0; at < len(stream); at += chunk {
			end := at + chunk
			if end > len(stream) {
				end = len(stream)
			}
			c.IngestAFRs(stream[at:end])
		}
		var out []WindowResult
		var rels []string
		for sw := 0; sw < subs; sw++ {
			out = append(out, c.FinishSubWindow(uint64(sw))...)
			rels = append(rels, fmt.Sprintf("%+v", c.Reliability(uint64(sw))))
		}
		return out, rels
	}

	baseRes, baseRel := run(len(stream))
	if len(baseRes) == 0 {
		t.Fatal("baseline produced no windows")
	}
	variants := []struct {
		name  string
		chunk int
	}{
		{"chunk=1", 1},
		{"chunk=32", 32},
	}
	for _, v := range variants {
		res, rel := run(v.chunk)
		if err := windowsEqual(baseRes, res); err != nil {
			t.Fatalf("%s diverged from baseline: %v", v.name, err)
		}
		for i := range rel {
			if rel[i] != baseRel[i] {
				t.Fatalf("%s reliability[%d] = %s, baseline %s", v.name, i, rel[i], baseRel[i])
			}
		}
	}
}

// windowsEqual compares two result sequences structurally and reports
// the first difference.
func windowsEqual(a, b []WindowResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("window count %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i])
		if x != y {
			return fmt.Errorf("window %d:\n  %s\nvs\n  %s", i, x, y)
		}
	}
	return nil
}
