package switchsim

import (
	"fmt"
	"time"

	"omniwindow/internal/packet"
)

// ProgramFunc is the data-plane program installed on a switch: it is
// invoked once per pipeline pass with the packet being processed.
type ProgramFunc func(p *Pass)

// Switch models one RMT switch: a pipeline with resource-accounted
// registers/MATs, a recirculation port, and a clone port to the controller.
type Switch struct {
	// ID identifies the switch in multi-switch topologies.
	ID int
	// Costs is the virtual-time cost model.
	Costs CostModel

	ledger    *Ledger
	feature   string
	nextRegID int
	registers []RegisterRef
	program   ProgramFunc

	// maxPasses bounds recirculation loops to catch runaway programs.
	maxPasses int

	// Per-pass access tracking, generation-stamped to avoid a map
	// allocation per packet.
	passGen    int
	touchedGen []int

	// Reused by every Inject so the steady-state data path allocates
	// nothing: the pass handed to the program, and the backing arrays of
	// the returned Output. Inject clears the previous output on entry and
	// each pass's slices once drained, so a reused buffer never keeps an
	// emitted packet reachable.
	pass         Pass
	forward      []*packet.Packet
	toController []*packet.Packet
}

// New creates a switch with the default capacity and cost model.
func New(id int) *Switch {
	return NewWithCapacity(id, DefaultCapacity(), DefaultCosts())
}

// NewWithCapacity creates a switch with explicit capacity and costs.
func NewWithCapacity(id int, capacity Capacity, costs CostModel) *Switch {
	return &Switch{
		ID:        id,
		Costs:     costs,
		ledger:    NewLedger(capacity),
		feature:   "uncategorized",
		maxPasses: 1 << 22,
	}
}

// Ledger exposes the resource ledger for Exp#5 reporting.
func (sw *Switch) Ledger() *Ledger { return sw.ledger }

// SetFeature attributes subsequent allocations to the named feature
// (paper Table 2 rows: "Signal", "Consistency model", ...).
func (sw *Switch) SetFeature(name string) { sw.feature = name }

// AllocMAT books the SRAM, VLIW slots and gateways of a match-action table
// under the current feature. MATs are stateless here: their behaviour lives
// in the program callback; this call keeps the resource model honest.
func (sw *Switch) AllocMAT(name string, stage, sramKB, vliws, gateways int) error {
	if err := sw.ledger.charge(sw.feature, stage, Resources{SRAMKB: sramKB, VLIWs: vliws, Gateways: gateways}); err != nil {
		return fmt.Errorf("alloc MAT %q: %w", name, err)
	}
	return nil
}

// SetProgram installs the data-plane program.
func (sw *Switch) SetProgram(f ProgramFunc) { sw.program = f }

// Registers lists all allocated registers (used by reset enumeration).
func (sw *Switch) Registers() []RegisterRef {
	return append([]RegisterRef(nil), sw.registers...)
}

// Output is everything one Inject produced, with its virtual-time cost.
// Its slices alias buffers owned by the switch: they stay valid until the
// next Inject on the same switch, which overwrites them. The switch does
// not reuse the packets they point to; those may be kept.
type Output struct {
	// Forward are the packets leaving on egress ports (normal traffic).
	Forward []*packet.Packet
	// ToController are the packets cloned or redirected to the
	// controller (triggers, AFRs, spilled keys).
	ToController []*packet.Packet
	// Passes is the number of pipeline traversals, 1 + recirculations.
	Passes int
	// Latency is the modeled time from ingress to the last emission.
	Latency time.Duration
}

// Pass is one traversal of the pipeline by one packet. It enforces the RMT
// constraints: each register is accessed at most once, and accesses must
// proceed in non-decreasing stage order (feed-forward pipeline).
type Pass struct {
	sw *Switch
	// Pkt is the packet being processed; programs mutate its OW header.
	Pkt *packet.Packet

	lastStage int

	forward      []*packet.Packet
	toController []*packet.Packet
	recirculate  bool
	dropped      bool
}

// touch records an access to a register and panics on constraint
// violations — these are bugs in the "P4 program", not runtime conditions.
func (p *Pass) touch(h *regHeader, idx int) {
	if idx < 0 || idx >= h.entries {
		panic(fmt.Sprintf("switchsim: register %q index %d out of range [0,%d) — the address MAT computed a bad offset", h.name, idx, h.entries))
	}
	if p.sw.touchedGen[h.id] == p.sw.passGen {
		panic(fmt.Sprintf("switchsim: register %q accessed twice in one pass — a SALU can reach one location per packet (C4); recirculate or restructure", h.name))
	}
	if h.stage < p.lastStage {
		panic(fmt.Sprintf("switchsim: register %q in stage %d accessed after stage %d — RMT pipelines are feed-forward", h.name, h.stage, p.lastStage))
	}
	p.sw.touchedGen[h.id] = p.sw.passGen
	p.lastStage = h.stage
}

// Touch books an access to a register without reading it. The sketch
// adapters use it so algorithm state kept in Go structs still obeys and
// exercises the single-access rule.
func (p *Pass) Touch(r RegisterRef, idx int) { p.touch(r.header(), idx) }

// CloneToController emits a copy of pkt on the CPU/controller port. The
// clone engine is independent of the egress port, so cloning does not
// consume the packet.
func (p *Pass) CloneToController(pkt *packet.Packet) {
	p.toController = append(p.toController, pkt)
}

// Emit forwards an extra packet (used by multicast-style behaviour).
func (p *Pass) Emit(pkt *packet.Packet) { p.forward = append(p.forward, pkt) }

// Recirculate sends the current packet back to ingress for another pass.
func (p *Pass) Recirculate() { p.recirculate = true }

// Drop consumes the current packet.
func (p *Pass) Drop() { p.dropped = true }

// Inject runs the packet through the pipeline, following recirculations
// until the packet leaves, and returns everything emitted plus the modeled
// latency. The recirculation port is hard-wired and independent of front
// ports, so recirculating packets do not steal bandwidth from normal
// traffic (paper §4.2). The returned Output is valid until the next Inject
// on this switch.
func (sw *Switch) Inject(pkt *packet.Packet) Output {
	clear(sw.forward)
	clear(sw.toController)
	sw.forward = sw.forward[:0]
	sw.toController = sw.toController[:0]
	if sw.program == nil {
		sw.forward = append(sw.forward, pkt)
		return Output{Forward: sw.forward, Passes: 1, Latency: sw.Costs.PipelinePass}
	}
	if len(sw.touchedGen) < sw.nextRegID {
		sw.touchedGen = make([]int, sw.nextRegID)
	}
	var out Output
	cur := pkt
	pass := &sw.pass
	pass.sw = sw
	for {
		out.Passes++
		if out.Passes > sw.maxPasses {
			panic(fmt.Sprintf("switchsim: packet exceeded %d passes — runaway recirculation loop", sw.maxPasses))
		}
		sw.passGen++
		pass.Pkt = cur
		pass.lastStage = 0
		pass.recirculate = false
		pass.dropped = false
		sw.program(pass)
		sw.toController = append(sw.toController, pass.toController...)
		sw.forward = append(sw.forward, pass.forward...)
		clear(pass.toController)
		clear(pass.forward)
		pass.toController = pass.toController[:0]
		pass.forward = pass.forward[:0]
		if pass.recirculate {
			continue
		}
		if !pass.dropped {
			sw.forward = append(sw.forward, cur)
		}
		break
	}
	pass.Pkt = nil
	out.Forward = sw.forward
	out.ToController = sw.toController
	out.Latency = time.Duration(out.Passes) * sw.Costs.PipelinePass
	return out
}

// OSReadRegister models the switch-OS path reading a whole register via
// PCIe: it returns a snapshot and the modeled time. This is the slow path
// OmniWindow exists to avoid (C1); the TW1/TW2 baselines use it.
func OSReadRegister[T any](sw *Switch, r *Register[T]) ([]T, time.Duration) {
	snap := append([]T(nil), r.data...)
	return snap, sw.Costs.OSReadTime(1, len(r.data))
}

// OSResetRegisters models the switch OS zeroing whole registers
// sequentially and returns the modeled time (Exp#8 baseline).
func (sw *Switch) OSResetRegisters(regs ...RegisterRef) time.Duration {
	total := 0
	for _, r := range regs {
		for i := 0; i < r.Entries(); i++ {
			r.zero(i)
		}
		total += r.Entries()
	}
	return sw.Costs.OSResetTime(1, total)
}
