package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/packet"
	"omniwindow/internal/trace"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]time.Duration, 10)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for p, want := range map[float64]time.Duration{0: 1, 50: 5, 90: 9, 95: 10, 100: 10} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestCollected(t *testing.T) {
	for _, c := range []struct{ before, after, want int }{
		{0, 0, 0}, {3, 3, 0}, {3, 4, 1}, {3, 5, 2}, {5, 4, 0},
	} {
		if got := collected(c.before, c.after); got != c.want {
			t.Errorf("collected(%d, %d) = %d, want %d", c.before, c.after, got, c.want)
		}
	}
}

func TestCRSelf(t *testing.T) {
	ms := time.Millisecond
	if got := crSelf(10*ms, 3*ms, ms, 2*ms); got != 4*ms {
		t.Errorf("crSelf = %v, want 4ms", got)
	}
	if got := crSelf(10*ms, 0, 0, 0); got != 10*ms {
		t.Errorf("crSelf without durability or assembly = %v, want 10ms", got)
	}
	if got := crSelf(5*ms, 4*ms, 2*ms, 0); got != 0 {
		t.Errorf("crSelf with children over the call = %v, want 0", got)
	}
}

func key(i int) packet.FlowKey { return trace.BurstKey(i) }

func window(end uint64, keys ...int) controller.WindowResult {
	w := controller.WindowResult{Start: end + 1 - planSize, End: end}
	for _, k := range keys {
		w.Detected = append(w.Detected, key(k))
	}
	return w
}

func TestDigest(t *testing.T) {
	base := []controller.WindowResult{window(4, 1, 2, 3), window(5, 2)}
	d := digest(base, 6)

	if got := digest([]controller.WindowResult{window(4, 3, 1, 2), window(5, 2)}, 6); got != d {
		t.Error("digest depends on the order of detected flows")
	}
	if got := digest(append(base[:2:2], window(6, 9)), 6); got != d {
		t.Error("digest covers a window ending at its bound")
	}
	flagged := []controller.WindowResult{window(4, 1, 2, 3), window(5, 2)}
	flagged[1].Incomplete = true
	changed := map[string][]controller.WindowResult{
		"a detected flow": {window(4, 1, 2, 4), window(5, 2)},
		"a missing flow":  {window(4, 1, 2), window(5, 2)},
		"a damage flag":   flagged,
		"a window":        {window(4, 1, 2, 3)},
	}
	for what, res := range changed {
		if digest(res, 6) == d {
			t.Errorf("digest does not change with %s", what)
		}
	}
}

func TestCheckWindows(t *testing.T) {
	truth := make([][]packet.FlowKey, epochSubWins)
	truth[4] = []packet.FlowKey{key(1)}
	truth[5] = []packet.FlowKey{key(1), key(2)}

	ok := []controller.WindowResult{window(4, 1, 7), window(5, 2, 1), window(6), window(7)}
	if c := checkWindows(ok, 7, truth); c.expected != 4 || c.failed != 0 || c.unexpected != 0 || c.positives != 3 {
		t.Errorf("all-correct windows: %+v", c)
	}

	bad := []controller.WindowResult{window(4, 1), window(5, 2), window(7), window(9)}
	bad[0].Degraded = true
	c := checkWindows(bad, 7, truth)
	want := windowCheck{expected: 4, failed: 3, missing: 1, flagged: 1, missedWindows: 1, missedFlows: 1, unexpected: 1, positives: 3}
	if c != want {
		t.Errorf("damaged windows: got %+v, want %+v", c, want)
	}

	if c := checkWindows(nil, 3, truth); c.expected != 0 {
		t.Errorf("no window can end before sub-window %d: %+v", planSize-1, c)
	}
}

// small turns workload w into a quick one: the zipf traffic on a tenth of
// the flows.
func small(w workload) workload {
	w.traffic = func(seed int64) trace.Config {
		cfg := trace.DefaultConfig(seed)
		cfg.Flows = 3000
		return cfg
	}
	return w
}

func TestFeederClassifiesEveryCall(t *testing.T) {
	et, err := generate(small(workloads[0]), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer et.release()
	b := &bencher{w: small(workloads[0]), et: et, dir: t.TempDir()}
	d, closeFn, err := b.deploy(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	f := &feeder{d: d, et: et}
	ph := f.run(beforeSubWindow(2 * uint64(epochSubWins)))

	if ph.last != 2*uint64(epochSubWins)-1 {
		t.Errorf("last sub-window fed %d, want %d", ph.last, 2*epochSubWins-1)
	}
	if ph.stats.SubWindows != int(ph.last)+1 {
		t.Errorf("collected %d sub-windows, want %d", ph.stats.SubWindows, ph.last+1)
	}
	// Every packet is one call, plus Finalize; each call is a boundary
	// call or a data-plane call. Timeout sub-windows are collected one
	// per call, except that Finalize may collect the last two.
	if calls := len(ph.boundary) + ph.dataplaneCalls; calls != ph.packets+1 {
		t.Errorf("%d classified calls for %d packets + Finalize", calls, ph.packets)
	}
	if n := len(ph.boundary); n != ph.stats.SubWindows && n != ph.stats.SubWindows-1 {
		t.Errorf("%d boundary calls for %d collected sub-windows", n, ph.stats.SubWindows)
	}
	if len(ph.stretch) != len(ph.boundary) || len(ph.position) != len(ph.boundary) {
		t.Fatalf("%d stretches and %d positions for %d boundary calls", len(ph.stretch), len(ph.position), len(ph.boundary))
	}
	// Finalize, the last call, may collect two sub-windows at once.
	for i, p := range ph.position[:len(ph.position)-1] {
		if p != i%epochSubWins {
			t.Fatalf("boundary call %d collected epoch sub-window %d first, want %d", i, p, i%epochSubWins)
		}
	}
	// Stretches and boundary calls partition the run: Finalize ends both.
	var sum time.Duration
	for i := range ph.boundary {
		sum += ph.stretch[i] + ph.boundary[i]
	}
	if sum != ph.wall {
		t.Errorf("stretches and boundary calls sum to %v, run took %v", sum, ph.wall)
	}
	if len(ph.epochs) != 2 {
		t.Errorf("timed %d whole epochs, want 2", len(ph.epochs))
	}
	if c := checkWindows(ph.results, ph.last, b.et.truth); c.failed != 0 || c.unexpected != 0 || c.positives == 0 {
		t.Errorf("output check: %+v", c)
	}
}

func TestDigestRepeatsAcrossRuns(t *testing.T) {
	var digests []uint64
	for i := 0; i < 2; i++ {
		et, err := generate(small(workloads[0]), 11)
		if err != nil {
			t.Fatal(err)
		}
		defer et.release()
		b := &bencher{w: small(workloads[0]), et: et, dir: t.TempDir()}
		d, err := b.reference()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Errorf("digests of one seed differ: %016x, %016x", digests[0], digests[1])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "zipf-dataplane", "--trace", "2"},
		{"--workload", "zipf-dataplane", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestResultMatchesBenchmarkJSON runs the whole benchmark on a small
// durable RDMA workload, which reaches every layer, and checks that each mode reports exactly the metrics, with the
// units, that BENCHMARK.json declares for it.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, ours []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		ours = append(ours, w.name+": "+w.why)
	}
	if fmt.Sprint(listed) != fmt.Sprint(ours) {
		t.Errorf("BENCHMARK.json workloads %q, benchmark has %q", listed, ours)
	}

	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		res, err := bench(small(workloads[2]), 3, time.Second, traced, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
			}
		}
	}
}

func TestMeasuredKeepsFastestStretchPerPosition(t *testing.T) {
	ms := time.Millisecond
	// Four replays of two epoch sub-windows. The fastest stretch of
	// position 0 precedes its slowest boundary call, which is kept all the
	// same: the choice does not look at the boundary call.
	ph := &phase{
		position: []int{0, 1, 0, 1, 0, 1, 0, 1},
		stretch:  []time.Duration{50 * ms, 80 * ms, 40 * ms, 90 * ms, 60 * ms, 70 * ms, 45 * ms, 75 * ms},
		boundary: []time.Duration{5 * ms, 3 * ms, 9 * ms, 4 * ms, 5 * ms, 6 * ms, 2 * ms, 1 * ms},
	}
	q := measured(ph)
	if want := (40*ms + 9*ms) + (70*ms + 6*ms); q.epoch != want {
		t.Errorf("epoch = %v, want %v", q.epoch, want)
	}
	if got, want := fmt.Sprint(q.boundary), fmt.Sprint([]time.Duration{6 * ms, 9 * ms}); got != want {
		t.Errorf("kept boundary calls %v, want %v", got, want)
	}

	// Eight replays keep two per position; the epoch is their mean.
	ph = &phase{
		position: []int{3, 3, 3, 3, 3, 3, 3, 3},
		stretch:  []time.Duration{9 * ms, 1 * ms, 8 * ms, 7 * ms, 3 * ms, 6 * ms, 5 * ms, 4 * ms},
		boundary: []time.Duration{ms, 2 * ms, ms, ms, 4 * ms, ms, ms, ms},
	}
	if q := measured(ph); q.epoch != 5*ms || len(q.boundary) != 2 {
		t.Errorf("eight replays: epoch %v from %d calls, want 5ms from 2", q.epoch, len(q.boundary))
	}
}

func TestFastest(t *testing.T) {
	ms := time.Millisecond
	got := fastest([]time.Duration{5 * ms, 1 * ms, 9 * ms, 3 * ms, 7 * ms})
	if want := []bool{false, true, false, true, false}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fastest(5,1,9,3,7) = %v, want %v", got, want)
	}
	got = fastest([]time.Duration{4 * ms, 3 * ms, 2 * ms, 1 * ms})
	if want := []bool{false, false, false, true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fastest(4,3,2,1) = %v, want %v", got, want)
	}
	if got := fastest([]time.Duration{2 * ms, 2 * ms}); fmt.Sprint(got) != "[true false]" {
		t.Errorf("fastest of a tie = %v, want the first", got)
	}
	if got := fastest(nil); len(got) != 0 {
		t.Errorf("fastest(nil) = %v", got)
	}
}
