package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	omniwindow "omniwindow"
	"omniwindow/internal/obs"
)

// Registry names the traced run reads; the program registers them when
// Config.Obs is set.
const (
	mFinish      = "omniwindow_controller_finish_seconds"
	mDuplicates  = "omniwindow_controller_duplicates_total"
	mWAL         = "omniwindow_durable_wal_append_seconds"
	mWALBytes    = "omniwindow_durable_wal_bytes_total"
	mCheckpoint  = "omniwindow_durable_checkpoint_seconds"
	mCkptBytes   = "omniwindow_durable_checkpoint_bytes_total"
	mCheckpoints = "omniwindow_durable_checkpoints_total"
	mRotations   = "omniwindow_durable_rotations_total"
)

// span is one traced interval. Spans of one sub-window share its number
// as id; parent names the enclosing span of the same id ("" for a root).
// Times are ns since the traced phase began. Only durations are measured
// below the boundary span: its children are laid end to end in pipeline
// order. Clock "cpu" marks the controller's O1–O5 times, which are CPU
// summed across shard workers and may exceed their parent's wall time.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Clock  string `json:"clock,omitempty"`
}

// tracer takes the per-layer breakdown of a traced phase from outside the
// program: registry deltas around each feeder call, Controller().Times
// and TableSize after each boundary, and exact allocation counts over the
// stretches in which no boundary can fall.
type tracer struct {
	reg                  *obs.Registry
	finish, wal, ckpt    *obs.Histogram
	lastFinish, lastWAL  time.Duration
	lastCkpt             time.Duration
	origin, stretchStart time.Time
	spans                []span
	l                    layers

	// Allocation stretches: open from the end of a boundary call until
	// the first call that could collect a sub-window.
	open          bool
	calls         int
	stretchAllocs uint64
	stretchCalls  int
	openMallocs   uint64
	openCalls     int
	// dataplaneWAL is WAL time spent in the current dataplane stretch
	// (trigger frames appended by non-boundary calls).
	dataplaneWAL time.Duration
}

// layers accumulates the per-layer sums of a traced phase.
type layers struct {
	boundaries                              int
	boundaryWall, finish, wal, ckpt, crSelf time.Duration
	dataplaneWAL                            time.Duration
	ops                                     omniwindow.OpTimes
	tableFlows                              int
	allocs                                  uint64
	allocCalls                              int
	duplicates, walBytes, ckptBytes, ckpts  int64
	walFrames                               int64
	walSum                                  time.Duration
	rotations                               int64
	anomalies                               []string
	spans                                   []span
}

func newTracer(reg *obs.Registry) *tracer {
	return &tracer{
		reg:    reg,
		finish: reg.Histogram(mFinish, "", nil),
		wal:    reg.Histogram(mWAL, "", nil),
		ckpt:   reg.Histogram(mCheckpoint, "", nil),
		spans:  make([]span, 0, 4096),
	}
}

func (t *tracer) begin(now time.Time) {
	t.origin, t.stretchStart = now, now
	t.lastFinish, t.lastWAL, t.lastCkpt = t.finish.Sum(), t.wal.Sum(), t.ckpt.Sum()
	t.openStretch()
}

func (t *tracer) openStretch() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.open, t.openMallocs, t.openCalls = true, ms.Mallocs, t.calls
}

// before runs ahead of each call. A call that may collect a sub-window
// closes the open allocation stretch.
func (t *tracer) before(mayCollect bool) {
	if !mayCollect || !t.open {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.stretchAllocs += ms.Mallocs - t.openMallocs
	t.stretchCalls += t.calls - t.openCalls
	t.open = false
}

// deltas reads the registry time spent since the previous call.
func (t *tracer) deltas() (finish, wal, ckpt time.Duration) {
	f, w, c := t.finish.Sum(), t.wal.Sum(), t.ckpt.Sum()
	finish, wal, ckpt = f-t.lastFinish, w-t.lastWAL, c-t.lastCkpt
	t.lastFinish, t.lastWAL, t.lastCkpt = f, w, c
	return finish, wal, ckpt
}

func (t *tracer) dataplane() {
	t.calls++
	_, wal, _ := t.deltas()
	t.dataplaneWAL += wal
}

// boundary records a call over [t0, t1) that collected sub-windows
// first..first+n-1.
func (t *tracer) boundary(d *omniwindow.Deployment, first uint64, n int, t0, t1 time.Time) {
	if t.open {
		// A boundary in a call that was not expected to collect: its
		// allocations cannot be told apart from the stretch's, so the
		// stretch is dropped from the allocation count.
		t.open = false
		t.l.anomalies = append(t.l.anomalies, fmt.Sprintf("boundary of sub-window %d in a call no sub-window had ended before", first))
	}
	finish, wal, ckpt := t.deltas()
	wall := t1.Sub(t0)
	self := crSelf(wall, finish, wal, ckpt)
	t.l.boundaries++
	t.l.boundaryWall += wall
	t.l.finish += finish
	t.l.wal += wal
	t.l.ckpt += ckpt
	t.l.crSelf += self
	t.l.dataplaneWAL += t.dataplaneWAL

	ctrl := d.Controller()
	var ops omniwindow.OpTimes
	for sw := first; sw < first+uint64(n); sw++ {
		addOps(&ops, ctrl.Times(sw))
	}
	addOps(&t.l.ops, ops)
	t.l.tableFlows += ctrl.TableSize()

	id := first + uint64(n) - 1
	ns := func(x time.Time) int64 { return int64(x.Sub(t.origin)) }
	lay := func(name, parent, clock string, d time.Duration, from int64) int64 {
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: from, End: from + int64(d), Clock: clock})
		return from + int64(d)
	}
	dp := ns(t.stretchStart)
	t.spans = append(t.spans, span{Name: "dataplane", ID: id, Start: dp, End: ns(t0)})
	if t.dataplaneWAL > 0 {
		lay("durable.wal", "dataplane", "", t.dataplaneWAL, dp)
	}
	t.dataplaneWAL = 0

	at := ns(t0)
	t.spans = append(t.spans, span{Name: "boundary", ID: id, Start: at, End: ns(t1)})
	lay("controller.o1_collect", "afr.cr", "cpu", ops.Collect, at)
	at = lay("afr.cr", "boundary", "", self, at)
	op := at
	op = lay("controller.o2_insert", "controller.finish", "cpu", ops.Insert, op)
	op = lay("controller.o3_merge", "controller.finish", "cpu", ops.Merge, op)
	op = lay("controller.o4_process", "controller.finish", "cpu", ops.Process, op)
	lay("controller.o5_evict", "controller.finish", "cpu", ops.Evict, op)
	at = lay("controller.finish", "boundary", "", finish, at)
	at = lay("durable.wal", "boundary", "", wal, at)
	lay("durable.checkpoint", "boundary", "", ckpt, at)

	t.stretchStart = t1
	t.openStretch()
}

func addOps(sum *omniwindow.OpTimes, o omniwindow.OpTimes) {
	sum.Collect += o.Collect
	sum.Insert += o.Insert
	sum.Merge += o.Merge
	sum.Process += o.Process
	sum.Evict += o.Evict
}

// done reads the registry's end-of-phase totals.
func (t *tracer) done() *layers {
	l := t.l
	l.allocs, l.allocCalls = t.stretchAllocs, t.stretchCalls
	l.walFrames = t.wal.Count()
	l.walSum = t.wal.Sum()
	l.duplicates = t.reg.Counter(mDuplicates, "").Value()
	l.walBytes = t.reg.Counter(mWALBytes, "").Value()
	l.ckptBytes = t.reg.Counter(mCkptBytes, "").Value()
	l.ckpts = t.reg.Counter(mCheckpoints, "").Value()
	l.spans = t.spans
	return &l
}

// scrape renders the registry and returns every sample by name. Metrics
// the registry computes at scrape time (segment rotations) are only
// readable this way.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("render registry: %w", err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("registry sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
