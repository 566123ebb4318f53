// Command owreplay runs an OmniWindow deployment over a trace — generated
// on the fly or loaded from a .owtr file (see tracegen) — with a choice of
// telemetry app and window plan, and prints the merged window results.
//
// Usage:
//
//	owreplay -app heavy -window 500ms -slide 100ms -threshold 300
//	owreplay -in trace.owtr -app spread -threshold 120
//	owreplay -app bytes -window 1s -slide 1s -top 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"omniwindow"
	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, replays the trace,
// prints results to stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("owreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "replay this .owtr trace (default: generate one)")
	seed := fs.Int64("seed", 42, "seed for the generated trace")
	flows := fs.Int("flows", 10000, "background flows of the generated trace")
	duration := fs.Duration("duration", 2500*time.Millisecond, "generated trace length")
	app := fs.String("app", "heavy", "telemetry app: heavy | bytes | spread")
	windowLen := fs.Duration("window", 500*time.Millisecond, "window length")
	slide := fs.Duration("slide", 100*time.Millisecond, "slide (equal to -window for tumbling)")
	subWindow := fs.Duration("subwindow", 100*time.Millisecond, "sub-window length")
	threshold := fs.Uint64("threshold", 300, "detection threshold")
	memKB := fs.Int("mem", 256, "per-sub-window sketch memory (KB)")
	top := fs.Int("top", 10, "print at most this many detections per window")
	rdma := fs.Bool("rdma", false, "use the RDMA collection path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "owreplay: %v\n", err)
		return 1
	}

	var pkts []packet.Packet
	if *in != "" {
		var err error
		pkts, err = trace.ReadFile(*in)
		if err != nil {
			return fail(err)
		}
		if n := len(pkts); n > 0 {
			*duration = time.Duration(pkts[n-1].Time + 1)
		}
	} else {
		cfg := trace.DefaultConfig(*seed)
		cfg.Flows = *flows
		cfg.Duration = int64(*duration)
		pkts = trace.New(cfg).Generate()
	}

	if *subWindow <= 0 {
		return fail(fmt.Errorf("sub-window (%v) must be positive", *subWindow))
	}
	size := int(*windowLen / *subWindow)
	slideSub := int(*slide / *subWindow)
	if size < 1 || slideSub < 1 || *windowLen%*subWindow != 0 || *slide%*subWindow != 0 {
		return fail(fmt.Errorf("window (%v) and slide (%v) must be positive multiples of the sub-window (%v)",
			*windowLen, *slide, *subWindow))
	}

	mem := *memKB * 1024
	cfg := omniwindow.Config{
		SubWindow: *subWindow,
		Plan:      omniwindow.Sliding(size, slideSub),
		Threshold: *threshold,
		Slots:     1, // set below
		RDMA:      *rdma,
	}
	switch *app {
	case "heavy":
		cfg.Kind = omniwindow.Frequency
		w := sketch.NewCountMinBytes(4, mem, 1).Width()
		cfg.Slots = w
		cfg.AppFactory = func(region int) omniwindow.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMinBytes(4, mem, uint64(region+1)), w)
		}
	case "bytes":
		cfg.Kind = omniwindow.Frequency
		w := sketch.NewCountMinBytes(4, mem, 1).Width()
		cfg.Slots = w
		cfg.AppFactory = func(region int) omniwindow.StateApp {
			a := telemetry.NewFrequencyApp(sketch.NewCountMinBytes(4, mem, uint64(region+1)), w)
			a.VolumeOf = func(p *packet.Packet) uint64 { return uint64(p.Size) }
			return a
		}
	case "spread":
		cfg.Kind = omniwindow.Distinction
		slots := mem / (4 * sketch.SPSBucketBytes(4))
		cfg.Slots = slots
		cfg.AppFactory = func(region int) omniwindow.StateApp {
			return telemetry.NewSpreadSketchApp(sketch.NewSpreadSketchBytes(4, mem, uint64(region+1)), slots)
		}
		cfg.KeyOf = func(p *packet.Packet) (packet.FlowKey, bool) { return p.Key.SrcHostKey(), true }
	default:
		return fail(fmt.Errorf("unknown app %q (want heavy | bytes | spread)", *app))
	}
	cfg.CaptureValues = true
	cfg.Tracker = afr.TrackerConfig{BufferKeys: 16384, BloomBits: 1 << 20, BloomHashes: 3}

	d, err := omniwindow.New(cfg)
	if err != nil {
		return fail(err)
	}

	start := time.Now()
	results := d.RunFor(pkts, int64(*duration))
	elapsed := time.Since(start)

	st := d.Stats()
	fmt.Fprintf(stdout, "replayed %d packets in %v (%.0f ns/pkt); %d sub-windows, %d AFRs, worst C&R %v\n\n",
		st.Packets, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(max(st.Packets, 1)),
		st.SubWindows, st.AFRs, st.MaxCollectVirtual)

	for _, w := range results {
		if len(w.Detected) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "window [sub %d..%d] — %d detections\n", w.Start, w.End, len(w.Detected))
		det := append([]packet.FlowKey(nil), w.Detected...)
		sort.Slice(det, func(i, j int) bool { return w.Values[det[i]] > w.Values[det[j]] })
		for i, k := range det {
			if i >= *top {
				fmt.Fprintf(stdout, "  ... %d more\n", len(det)-*top)
				break
			}
			fmt.Fprintf(stdout, "  %-45s %d\n", k, w.Values[k])
		}
	}
	return 0
}
