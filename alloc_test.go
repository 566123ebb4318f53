package omniwindow

import (
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
)

// TestProcessPacketZeroAlloc pins the steady-state switch data path —
// sub-window stamping, flowkey tracking, the sketch update and the
// switch's pass and output buffers — at exactly zero allocations per
// packet. The deployment mirrors the benchmark's Zipf data-plane setting
// (100 ms sub-windows, 500 ms windows sliding by one, a 4-row Count-Min)
// at a test-sized trace. It is warmed past its first boundaries so every
// reused buffer has grown, then measured over packets that fall between
// two boundaries: no trigger, collection or spill lands in the stretch.
func TestProcessPacketZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const slots = 1 << 14
	d, err := New(Config{
		SubWindow: 100 * time.Millisecond,
		Plan:      Sliding(5, 1),
		Kind:      Frequency,
		Threshold: 100,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMin(4, slots, uint64(region)), slots)
		},
		Slots:  slots,
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.DefaultConfig(1)
	tc.Flows = 3000
	tc.Duration = 1000 * trace.Millisecond
	pkts := trace.New(tc).Generate()

	// Sub-window 7 has terminated six boundaries behind it (windows have
	// been emitted), and its own collection of sub-window 6 runs at the
	// first packet past the grace period: start measuring well after.
	from, to := int64(750*trace.Millisecond), int64(790*trace.Millisecond)
	i := 0
	for ; i < len(pkts) && pkts[i].Time < from; i++ {
		d.ProcessPacket(&pkts[i])
	}
	end := i
	for end < len(pkts) && pkts[end].Time < to {
		end++
	}
	if len(d.Results()) == 0 {
		t.Fatal("warm-up emitted no windows: the deployment is not past its first boundaries")
	}
	// AllocsPerRun calls f once untimed, then once measured: each call
	// processes half the stretch, so the result is the exact allocation
	// count over the second half, not a per-packet average rounded down.
	half := (end - i) / 2
	if half < 1000 {
		t.Fatalf("only %d packets per measured half; the stretch is too short", half)
	}
	before := d.Stats().Packets
	allocs := testing.AllocsPerRun(1, func() {
		for stop := i + half; i < stop; i++ {
			d.ProcessPacket(&pkts[i])
		}
	})
	if got := d.Stats().Packets - before; got != 2*half {
		t.Fatalf("processed %d packets, want %d", got, 2*half)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations over %d steady-state packets, want 0", allocs, half)
	}
}
