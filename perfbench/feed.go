package main

import (
	"runtime"
	"time"

	omniwindow "omniwindow"
	"omniwindow/internal/controller"
	"omniwindow/internal/packet"
)

// phase is what one feeder run over a deployment measured.
type phase struct {
	packets int
	wall    time.Duration
	// boundary holds the duration of every boundary call, in call order;
	// stretch the wall time of the non-boundary calls since the previous
	// boundary call, and position the epoch sub-window (sub-window mod
	// epochSubWins) the call collected first. A position's stretch is the
	// same packets in every replayed epoch.
	boundary []time.Duration
	stretch  []time.Duration
	position []int
	// epochs holds the wall time of every whole replayed epoch.
	epochs []time.Duration
	// dataplane sums the non-boundary calls.
	dataplane      time.Duration
	dataplaneCalls int
	mallocs        uint64
	gcCycles       uint32
	// heapAt is the heap in use, after a forced GC, just before sub-window
	// heapSubWindow was fed; the pause to take it is not in wall.
	heapAt uint64
	// last is the last sub-window fed; Finalize collected it.
	last    uint64
	results []controller.WindowResult
	stats   omniwindow.Stats
	layers  *layers
}

// feeder drives one deployment from one goroutine in a closed loop: the
// next packet goes in when ProcessPacket returns. Trace timestamps are the
// deployment's virtual time; epoch e of the replay is shifted by e epochs.
type feeder struct {
	d *omniwindow.Deployment
	// heapSubWindow, when non-zero, is where run measures the heap.
	heapSubWindow uint64
	et            *epochTrace
	tr            *tracer
	ph            phase
	// subs is Stats().SubWindows after the previous call.
	subs int
	// epoch is the replayed epoch being fed.
	epoch int
	// paused is the wall time run spent measuring the heap, which no
	// metric counts; lastEnd and lastPaused are the end of the previous
	// boundary call and paused then.
	paused, lastPaused time.Duration
	lastEnd            time.Time
}

// stopFunc decides, at each sub-window change, whether to stop before
// feeding sub-window next. epochs is the number of whole epochs fed so far
// and now the end of the last call.
type stopFunc func(next uint64, now time.Time, epochs int) bool

// run feeds the replayed epoch until stop says so, then finalizes the
// deployment. It stops only between sub-windows, so every collected
// sub-window holds all of its traffic and the ground truth applies to
// every emitted window.
func (f *feeder) run(stop stopFunc) phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, gcs := ms.Mallocs, ms.NumGC
	// Room for every boundary of a long run, so the timed loop does not
	// allocate.
	f.ph.boundary = make([]time.Duration, 0, 4096)
	f.ph.stretch = make([]time.Duration, 0, 4096)
	f.ph.position = make([]int, 0, 4096)
	f.ph.epochs = make([]time.Duration, 0, 256)

	var pk packet.Packet
	pkts := f.et.pkts
	i := 0
	cur := uint64(0)
	start := time.Now()
	now := start
	f.lastEnd = start
	epochStart, epochPaused := start, time.Duration(0)
	if f.tr != nil {
		f.tr.begin(start)
	}
	for {
		p := &pkts[i]
		sw := uint64(f.epoch*epochSubWins) + uint64(p.sw)
		if sw != cur {
			if stop(sw, now, len(f.ph.epochs)) {
				break
			}
			if sw == f.heapSubWindow {
				t0 := time.Now()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				f.ph.heapAt = ms.HeapAlloc
				f.paused += time.Since(t0)
			}
		}
		cur = sw
		pk = packet.Packet{Key: p.key, Size: p.size, TCPFlags: p.flags, Seq: p.seq, Time: p.time + int64(f.epoch)*int64(epoch)}
		if f.tr != nil {
			f.tr.before(sw > uint64(f.subs))
		}
		t0 := time.Now()
		f.d.ProcessPacket(&pk)
		now = time.Now()
		f.account(t0, now)
		f.ph.packets++
		if i++; i == len(pkts) {
			i = 0
			f.epoch++
			f.ph.epochs = append(f.ph.epochs, now.Sub(epochStart)-(f.paused-epochPaused))
			epochStart, epochPaused = now, f.paused
		}
	}
	if f.tr != nil {
		f.tr.before(true)
	}
	t0 := time.Now()
	f.d.Finalize()
	end := time.Now()
	f.account(t0, end)

	f.ph.wall = end.Sub(start) - f.paused
	runtime.ReadMemStats(&ms)
	f.ph.mallocs = ms.Mallocs - mallocs
	f.ph.gcCycles = ms.NumGC - gcs
	f.ph.last = cur
	f.ph.results = f.d.Results()
	f.ph.stats = f.d.Stats()
	if f.tr != nil {
		f.ph.layers = f.tr.done()
	}
	return f.ph
}

// account classifies the call that ran over [t0, t1).
func (f *feeder) account(t0, t1 time.Time) {
	dt := t1.Sub(t0)
	subs := f.d.Stats().SubWindows
	if n := collected(f.subs, subs); n > 0 {
		f.ph.boundary = append(f.ph.boundary, dt)
		f.ph.stretch = append(f.ph.stretch, t0.Sub(f.lastEnd)-(f.paused-f.lastPaused))
		f.ph.position = append(f.ph.position, f.subs%epochSubWins)
		f.lastEnd, f.lastPaused = t1, f.paused
		if f.tr != nil {
			f.tr.boundary(f.d, uint64(f.subs), n, t0, t1)
		}
		f.subs = subs
		return
	}
	f.ph.dataplane += dt
	f.ph.dataplaneCalls++
	if f.tr != nil {
		f.tr.dataplane()
	}
}

// untilDeadline stops at the first sub-window change after the deadline
// once at least minEpochs whole epochs were fed.
func untilDeadline(deadline time.Time, minEpochs int) stopFunc {
	return func(_ uint64, now time.Time, epochs int) bool {
		return epochs >= minEpochs && !now.Before(deadline)
	}
}

// beforeSubWindow stops before sub-window end is fed.
func beforeSubWindow(end uint64) stopFunc {
	return func(next uint64, _ time.Time, _ int) bool { return next >= end }
}
