package switchsim

import (
	"testing"

	"omniwindow/internal/packet"
)

// TestInjectZeroAlloc pins the steady-state Inject at zero allocations:
// the pass and the output buffers are the switch's own, reused by every
// call. The program exercises a register update, a recirculation and an
// extra emitted packet, so every reused buffer is in play.
func TestInjectZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	sw := newTestSwitch(t)
	reg := mustReg(t, sw, "r", 0, 16, 8)
	extra := &packet.Packet{}
	sw.SetProgram(func(p *Pass) {
		ReadWrite(p, reg, int(p.Pkt.Size%16), func(x uint64) uint64 { return x + 1 })
		if p.Pkt.OW.Flag == packet.OWCollection {
			p.Pkt.OW.Flag = packet.OWNone
			p.Emit(extra)
			p.Recirculate()
		}
	})
	pkt := &packet.Packet{}
	var passes int
	allocs := testing.AllocsPerRun(1000, func() {
		pkt.Size++
		pkt.OW.Flag = packet.OWCollection
		out := sw.Inject(pkt)
		passes += out.Passes
	})
	if allocs != 0 {
		t.Fatalf("Inject allocated %v per call, want 0", allocs)
	}
	if passes != 2*1001 {
		t.Fatalf("passes = %d, want %d (one recirculation per packet)", passes, 2*1001)
	}
}

// TestInjectReleasesPreviousOutput: the buffers Inject reuses must not
// keep the previous call's packets reachable. A collection round clones
// thousands of AFR packets to the controller; a stale pointer left in a
// reused buffer would pin all of them until the buffer is next filled
// that far.
func TestInjectReleasesPreviousOutput(t *testing.T) {
	sw := newTestSwitch(t)
	sw.SetProgram(func(p *Pass) {
		switch p.Pkt.OW.Flag {
		case packet.OWCollection:
			// Shrinking fan-out across passes: each pass leaves the
			// per-pass buffers shorter than the one before.
			for i := uint32(0); i < p.Pkt.OW.Index; i++ {
				p.CloneToController(p.Pkt.Clone())
				p.Emit(&packet.Packet{})
			}
			if p.Pkt.OW.Index > 0 {
				p.Pkt.OW.Index--
				p.Recirculate()
			}
		case packet.OWReset:
			p.Drop()
		}
	})
	out := sw.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWCollection, Index: 4}})
	if len(out.ToController) != 4+3+2+1 || len(out.Forward) != 4+3+2+1+1 {
		t.Fatalf("first output: %d to controller, %d forwarded", len(out.ToController), len(out.Forward))
	}
	out = sw.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWReset}})
	if len(out.ToController) != 0 || len(out.Forward) != 0 {
		t.Fatalf("second output: %d to controller, %d forwarded", len(out.ToController), len(out.Forward))
	}
	buffers := map[string][]*packet.Packet{
		"forward":           sw.forward,
		"toController":      sw.toController,
		"pass.forward":      sw.pass.forward,
		"pass.toController": sw.pass.toController,
	}
	for name, buf := range buffers {
		for i, p := range buf[:cap(buf)] {
			if p != nil {
				t.Errorf("%s[%d] still points at a packet of the previous output", name, i)
			}
		}
	}
	if sw.pass.Pkt != nil {
		t.Error("the reused pass still points at the last injected packet")
	}
}
