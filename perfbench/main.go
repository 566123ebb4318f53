// Command perfbench is the repository's end-to-end benchmark. It drives a
// full omniwindow.Deployment from outside — trace → switch data plane →
// collect-and-reset → controller → durability → emitted windows — on one
// named workload, checks every emitted window against exact ground truth,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object: correct, attempted and failed windows, and
// the metrics.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload zipf-dataplane --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of one untraced
// timed run. With --trace 1 an untraced and a traced run (Config.Obs set)
// share the time, and the result holds the per-layer breakdown, the
// tracing overhead, and the workload's defining properties; the spans are
// written to --dir at the end.
//
// A timed run replays one generated epoch over and over, so the packets
// fed before the boundary of a given epoch sub-window are the same work in
// every replay. The host is shared, and its co-tenants slow stretches of a
// run lasting from a second to minutes by tens of percent, so the
// wall-time metrics (packets per second, boundary latency) rest on the
// fastest quarter of each epoch sub-window's replays; the whole-run
// figures are printed beside them.
//
// The benchmark adds no instrumentation to the program. It times calls
// into public functions, reads Stats, Controller().Times and TableSize,
// and fetches the program's own registry metrics by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	omniwindow "omniwindow"
	"omniwindow/internal/obs"
)

const (
	// minBoundaries is the fewest boundary calls the time metrics rest
	// on: enough for the p90 to have minBeyond samples beyond it.
	minBoundaries = 100
	// minEpochs is the fewest whole epochs an untraced timed run feeds,
	// however long that takes: the fastest quarter of each epoch
	// sub-window's replays then holds at least 4 of them, minBoundaries
	// boundary calls in all. On a host slowed to half speed a run still
	// ends near its deadline. The per-layer figures of a traced invocation
	// are means over all boundaries of its runs, which feed at least
	// minTracedEpochs each.
	minEpochs       = 13
	minTracedEpochs = 4
	// setupReps is how many deployments setup_s builds; it reports the
	// median.
	setupReps = 31
	// digestEnd bounds the digest: windows ending before this sub-window.
	// Every run covers them, so every run of a seed has the same digest.
	digestEnd = 15
	// heapSubWindow, the first of the fifth epoch, is where a timed run
	// measures the deployment's live heap. Every untraced run reaches it,
	// and there the deployment has processed the same packets and holds
	// the same windows in every run, so the figure does not grow with
	// throughput the way the emitted windows a run keeps by its end do.
	heapSubWindow = uint64(4 * epochSubWins)
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed; the trace is generated from it")
	seconds := fs.Int("seconds", 15, "length of each timed run in seconds")
	traced := fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench", "run"), "directory for durable state and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *dir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metrics as they are added and collects them for the result.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.out, "  %-34s %14.6g %-10s%s\n", name, v, unit, note)
}

func bench(w workload, seed int64, seconds time.Duration, traced bool, dir string, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds.Seconds(), traced)
	fmt.Fprintf(out, "host %s\n", fingerprint())

	et, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	defer et.release()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state directory: %w", err)
	}
	runDir, err := os.MkdirTemp(dir, w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("state directory: %w", err)
	}
	defer os.RemoveAll(runDir)
	b := &bencher{w: w, et: et, dir: runDir}

	ref, err := b.reference()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "digest %016x (windows ending before sub-window %d, fresh deployment)\n", ref, digestEnd)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	rep := &report{out: out, metrics: res.Metrics}
	if !traced {
		setup, err := b.setup()
		if err != nil {
			return nil, err
		}
		plain, err := b.timed(seconds, nil, minEpochs)
		if err != nil {
			return nil, err
		}
		b.verify(res, "untraced", plain, ref, out)
		if n := len(measured(&plain.phase).boundary); n < minBoundaries {
			fmt.Fprintf(out, "  FAIL only %d boundary calls in the fastest quarter\n", n)
			res.Correct = false
		}
		fmt.Fprintln(out, "end-to-end metrics (untraced run):")
		b.endToEnd(rep, plain, setup)
		return res, nil
	}

	// A traced invocation splits its time between an untraced and a
	// traced run, so it takes about as long as an untraced one. The
	// untraced run is the base of the tracing overhead.
	seconds /= 2
	plain, err := b.timed(seconds, nil, minTracedEpochs)
	if err != nil {
		return nil, err
	}
	b.verify(res, "untraced", plain, ref, out)
	reg := obs.NewRegistry()
	tr, err := b.timed(seconds, reg, minTracedEpochs)
	if err != nil {
		return nil, err
	}
	b.verify(res, "traced", tr, ref, out)
	fmt.Fprintln(out, "per-layer metrics (traced run):")
	if err := b.perLayer(rep, tr, reg, plain); err != nil {
		return nil, err
	}
	spans := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := writeSpans(spans, tr.layers.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans %s (%d)\n", spans, len(tr.layers.spans))
	return res, nil
}

// bencher holds one invocation's inputs.
type bencher struct {
	w   workload
	et  *epochTrace
	dir string
	// built counts deployments, naming their checkpoint directories.
	built int
}

// deploy builds a deployment on a fresh, empty checkpoint directory. The
// returned close releases the durable store.
func (b *bencher) deploy(reg *obs.Registry) (*omniwindow.Deployment, func() error, error) {
	b.built++
	cfg := b.w.config(filepath.Join(b.dir, fmt.Sprintf("d%d", b.built)))
	cfg.Obs = reg
	d, err := omniwindow.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", b.w.name, err)
	}
	return d, d.CloseDurability, nil
}

// setup returns the median wall time of omniwindow.New, durability open on
// an empty directory included. Each New starts with the process's free
// memory returned to the operating system, as a process's first deployment
// does, so every sample pays the same page faults.
func (b *bencher) setup() (time.Duration, error) {
	samples := make([]time.Duration, 0, setupReps)
	// The first deployment of the process also initializes the packages
	// it uses; it is not counted.
	for i := -1; i < setupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		_, closeFn, err := b.deploy(nil)
		el := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := closeFn(); err != nil {
			return 0, fmt.Errorf("close durable store: %w", err)
		}
		if i >= 0 {
			samples = append(samples, el)
		}
	}
	sortDurations(samples)
	return percentile(samples, 50), nil
}

// reference replays the digest's sub-windows through a fresh deployment
// and returns their digest, which every timed run must reproduce.
func (b *bencher) reference() (uint64, error) {
	d, closeFn, err := b.deploy(nil)
	if err != nil {
		return 0, err
	}
	f := &feeder{d: d, et: b.et}
	ph := f.run(beforeSubWindow(digestEnd))
	if err := closeFn(); err != nil {
		return 0, fmt.Errorf("close durable store: %w", err)
	}
	if c := checkWindows(ph.results, ph.last, b.et.truth); c.failed > 0 || c.unexpected > 0 || c.expected == 0 {
		return 0, fmt.Errorf("reference replay: %d of %d windows failed, %d unexpected", c.failed, c.expected, c.unexpected)
	}
	return digest(ph.results, digestEnd), nil
}

// timedPhase is a timed run plus the deployment's live heap and
// durability error.
type timedPhase struct {
	phase
	liveHeap uint64
	durErr   error
	// steal is the share of the host's CPU time the hypervisor gave to
	// other guests during the run (-1 when unknown): the runs that
	// co-tenants slow down show it.
	steal float64
}

// timed runs one timed phase on a fresh deployment. With reg set the
// deployment is instrumented and the phase traced.
func (b *bencher) timed(seconds time.Duration, reg *obs.Registry, minEpochs int) (*timedPhase, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	d, closeFn, err := b.deploy(reg)
	if err != nil {
		return nil, err
	}
	f := &feeder{d: d, et: b.et, heapSubWindow: heapSubWindow}
	if reg != nil {
		f.tr = newTracer(reg)
	}
	steal0, total0, ok0 := cpuTimes()
	ph := f.run(untilDeadline(time.Now().Add(seconds), minEpochs))
	tp := &timedPhase{phase: ph, durErr: d.DurabilityErr(), steal: -1}
	if steal1, total1, ok1 := cpuTimes(); ok0 && ok1 && total1 > total0 {
		tp.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if ph.heapAt > before {
		tp.liveHeap = ph.heapAt - before
	}
	if err := closeFn(); err != nil {
		return nil, fmt.Errorf("close durable store: %w", err)
	}
	return tp, nil
}

// verify runs the output checks on a timed phase and folds them into res.
func (b *bencher) verify(res *result, label string, ph *timedPhase, ref uint64, out io.Writer) {
	c := checkWindows(ph.results, ph.last, b.et.truth)
	got := digest(ph.results, digestEnd)
	res.Attempted += c.expected
	res.Failed += c.failed
	var problems []string
	if c.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed windows: %d missing, %d Incomplete/Degraded, %d missing %d heavy hitters",
			c.failed, c.missing, c.flagged, c.missedWindows, c.missedFlows))
	}
	if c.unexpected > 0 {
		problems = append(problems, fmt.Sprintf("%d windows outside the plan", c.unexpected))
	}
	if got != ref {
		problems = append(problems, fmt.Sprintf("digest %016x differs from the fresh deployment's %016x", got, ref))
	}
	if ph.durErr != nil {
		problems = append(problems, fmt.Sprintf("durability: %v", ph.durErr))
	}
	if ph.layers != nil {
		problems = append(problems, ph.layers.anomalies...)
	}
	fmt.Fprintf(out, "check %s: %d windows for sub-windows 0..%d, %d failed, %d heavy hitters checked, digest %016x\n",
		label, c.expected, ph.last, c.failed, c.positives, got)
	for _, p := range problems {
		fmt.Fprintf(out, "  FAIL %s\n", p)
		res.Correct = false
	}
}

// quarter is the part of a timed run the time metrics rest on. For each
// epoch sub-window, the replays whose data-plane stretch before its
// boundary call ran in the fastest quarter are kept: the stretch shows how
// fast the host ran just then, and choosing by it leaves the boundary
// call's own duration out of the choice.
type quarter struct {
	// epoch is one epoch's wall time: the sum, over the epoch
	// sub-windows, of the mean kept stretch plus boundary call.
	epoch    time.Duration
	boundary []time.Duration // the kept boundary calls, sorted
}

func measured(ph *phase) quarter {
	calls := make([][]int, epochSubWins)
	for i, p := range ph.position {
		calls[p] = append(calls[p], i)
	}
	var q quarter
	for _, idx := range calls {
		stretch := make([]time.Duration, len(idx))
		for k, i := range idx {
			stretch[k] = ph.stretch[i]
		}
		var sum time.Duration
		kept := 0
		for k, fast := range fastest(stretch) {
			if fast {
				i := idx[k]
				sum += ph.stretch[i] + ph.boundary[i]
				q.boundary = append(q.boundary, ph.boundary[i])
				kept++
			}
		}
		if kept > 0 {
			q.epoch += sum / time.Duration(kept)
		}
	}
	sortDurations(q.boundary)
	return q
}

func (b *bencher) endToEnd(r *report, ph *timedPhase, setup time.Duration) {
	w := measured(&ph.phase)
	all := append([]time.Duration(nil), ph.boundary...)
	sortDurations(all)
	n := len(w.boundary)
	top := highestPercentile(n)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	fmt.Fprintf(r.out, "  whole run: %d packets in %.3fs (%.0f/s), %d epochs of %v, boundary p50 %.4f ms p90 %.4f ms over %d calls, host steal %.1f%%\n",
		ph.packets, ph.wall.Seconds(), float64(ph.packets)/ph.wall.Seconds(), len(ph.epochs), ph.epochs,
		ms(percentile(all, 50)), ms(percentile(all, 90)), len(all), 100*ph.steal)
	r.add("pkts_per_s", float64(len(b.et.pkts))/w.epoch.Seconds(), "1/s",
		fmt.Sprintf("fastest quarter of each epoch sub-window's replays over %d epochs, one closed-loop feeder", len(ph.epochs)))
	r.add("boundary_ms_p50", ms(percentile(w.boundary, 50)), "ms", fmt.Sprintf("n=%d boundary calls in that quarter", n))
	// The p90 is printed but is not one of the result's metrics: between
	// runs minutes apart on a shared host it spreads by up to a quarter,
	// the widest bound a metric may have.
	fmt.Fprintf(r.out, "  %-34s %14.6g %-10s  (highest percentile with %d beyond: p%g = %.4f ms)\n",
		"boundary_ms_p90", ms(percentile(w.boundary, 90)), "ms", minBeyond, top, ms(percentile(w.boundary, top)))
	r.add("allocs_per_pkt", float64(ph.mallocs)/float64(ph.packets), "count", "heap allocations over the timed run")
	r.add("live_heap_mb", float64(ph.liveHeap)/1e6, "MB", fmt.Sprintf("after GC, before sub-window %d", heapSubWindow))
	r.add("setup_s", setup.Seconds(), "s", fmt.Sprintf("median of %d omniwindow.New calls", setupReps))
	failed := 0.0
	if c := checkWindows(ph.results, ph.last, b.et.truth); c.expected > 0 {
		failed = float64(c.failed) / float64(c.expected)
	}
	// Reported here and as the result's failed/attempted; it is 0 on a
	// correct run, so it is not one of the result's metrics.
	fmt.Fprintf(r.out, "  %-34s %14.6g %-10s  (failed / expected windows)\n", "windows_failed_ratio", failed, "ratio")
}

func (b *bencher) perLayer(r *report, ph *timedPhase, reg *obs.Registry, plain *timedPhase) error {
	l, s := ph.layers, ph.stats
	samples, err := scrape(reg)
	if err != nil {
		return err
	}
	required := []string{mFinish + "_count", mDuplicates}
	if b.w.durable {
		required = append(required, mWAL+"_count", mWALBytes, mCheckpoint+"_count", mCkptBytes, mCheckpoints, mRotations)
	}
	var absent []string
	for _, m := range required {
		if _, ok := samples[m]; !ok {
			absent = append(absent, m)
		}
	}
	if len(absent) > 0 {
		return fmt.Errorf("registry lacks %s", strings.Join(absent, ", "))
	}

	per := func(v float64, n int) float64 { return ratio(v, float64(n)) }
	bms := func(d time.Duration) float64 { return per(float64(d)/1e6, l.boundaries) }
	subs := s.SubWindows

	r.add("switchsim.ns_per_pkt", per(float64(ph.dataplane), ph.dataplaneCalls), "ns", "mean non-boundary call")
	r.add("switchsim.allocs_per_pkt", per(float64(l.allocs), l.allocCalls), "count", fmt.Sprintf("over %d calls no boundary could fall in", l.allocCalls))
	r.add("switchsim.spill_ratio", per(float64(s.Spills), s.AFRs), "ratio", "spilled / tracked keys")
	r.add("afr.cr_self_ms", bms(l.crSelf), "ms", "boundary − finish − WAL − checkpoint")
	r.add("afr.afrs_per_boundary", per(float64(s.AFRs), subs), "count", "")
	r.add("afr.recirc_passes_per_boundary", per(float64(s.RecircPasses), subs), "count", "")
	r.add("afr.cr_virtual_ms_max", float64(s.MaxCollectVirtual)/1e6, "ms_virtual", "cost-model time, never added to wall time")
	r.add("afr.retransmitted", float64(s.Retransmitted), "count", "")
	r.add("controller.finish_ms", bms(l.finish), "ms", "wall")
	r.add("controller.o1_collect_ms", bms(l.ops.Collect), "ms_cpu", "CPU summed across shards")
	r.add("controller.o2_insert_ms", bms(l.ops.Insert), "ms_cpu", "")
	r.add("controller.o3_merge_ms", bms(l.ops.Merge), "ms_cpu", "")
	r.add("controller.o4_process_ms", bms(l.ops.Process), "ms_cpu", "")
	r.add("controller.o5_evict_ms", bms(l.ops.Evict), "ms_cpu", "")
	r.add("controller.table_flows", per(float64(l.tableFlows), l.boundaries), "count", "mean after each boundary")
	r.add("controller.duplicates", float64(l.duplicates), "count", "")
	r.add("rdma.hot_ratio", per(float64(s.HotAFRs), s.HotAFRs+s.ColdAFRs), "ratio", "hot / (hot + cold) AFRs")
	r.add("rdma.fallback_afrs", float64(s.FallbackAFRs), "count", "")
	r.add("rdma.replayed", float64(s.RDMAReplayed), "count", "")
	r.add("durable.wal_ms", bms(l.wal), "ms", fmt.Sprintf("per boundary; %.3f ms in all non-boundary calls", float64(l.dataplaneWAL)/1e6))
	r.add("durable.wal_append_us", ratio(float64(l.walSum)/1e3, float64(l.walFrames)), "us", fmt.Sprintf("per frame, %d frames", l.walFrames))
	r.add("durable.wal_bytes_per_boundary", per(float64(l.walBytes), subs), "B", "")
	r.add("durable.checkpoint_ms", bms(l.ckpt), "ms", "per boundary")
	r.add("durable.checkpoint_bytes", ratio(float64(l.ckptBytes), float64(l.ckpts)), "B", "per checkpoint")
	r.add("durable.rotations", samples[mRotations], "count", "")
	r.add("runtime.gc_cycles", ratio(float64(ph.gcCycles), float64(ph.packets)/1e6), "1/Mpkt", fmt.Sprintf("%d cycles", ph.gcCycles))
	r.add("workload.boundary_share", ratio(float64(l.boundaryWall), float64(ph.wall)), "ratio", "boundary calls / wall time")
	r.add("trace.boundary_calls", float64(l.boundaries), "count", "")
	rate := func(p *timedPhase) float64 { return float64(p.packets) / p.wall.Seconds() }
	r.add("trace.overhead", ratio(rate(ph), rate(plain)), "ratio", "traced / untraced packets per second, whole runs")
	fmt.Fprintf(r.out, "defining properties of %s: boundary share of wall time %.3f, %.0f AFRs per boundary, %.0f WAL bytes per boundary\n",
		b.w.name, r.metrics["workload.boundary_share"].Value, r.metrics["afr.afrs_per_boundary"].Value, r.metrics["durable.wal_bytes_per_boundary"].Value)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

// fingerprint names the host: a comparison across hosts that differ here
// compares the hosts, not the code.
func fingerprint() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s shards=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), shards)
}

// cpuTimes reads the host's steal and total CPU time from /proc/stat, in
// clock ticks; ok is false where the file is not available.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice are already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
