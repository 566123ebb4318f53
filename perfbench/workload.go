package main

import (
	"fmt"
	"time"

	omniwindow "omniwindow"
	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
)

// Every workload runs the paper's setting: 100 ms sub-windows merged into
// 500 ms windows sliding by one sub-window. One generated epoch is replayed
// at successive time offsets, so memory stays bounded however long a run
// lasts, and the epoch is a whole number of sub-windows, so the exact
// per-window ground truth repeats with the epoch.
const (
	subWindow    = 100 * time.Millisecond
	planSize     = 5
	epoch        = 2500 * time.Millisecond
	epochSubWins = int(epoch / subWindow)
	// shards pins the controller's shard count to the 2-core host the
	// workloads were sized on, instead of letting the deployment derive it
	// from GOMAXPROCS: a run on another host then still measures the same
	// configuration, and the fingerprint shows the host differs.
	shards = 2
	// threshold is the heavy-hitter threshold, in packets per window.
	threshold = 100
)

// workload is one named configuration of the deployment plus the traffic
// that drives it.
type workload struct {
	name string
	why  string
	// traffic builds the generator config for one epoch from the seed.
	traffic func(seed int64) trace.Config
	slots   int
	tracker afr.TrackerConfig
	// durable turns on RDMA collection plus a WAL and a checkpoint at
	// every boundary.
	durable bool
}

// workloads are the benchmark's inputs. Each stresses a different layer,
// and each is the bypass case for the others' layers: see why.
var workloads = []workload{
	{
		name:    "zipf-dataplane",
		why:     "Zipf trace with small boundaries: per-packet data-plane work dominates; bypasses durability",
		traffic: trace.DefaultConfig,
		slots:   1 << 14,
	},
	{
		name:    "mice-boundary",
		why:     "200k mice flows per epoch: ~9k AFRs per boundary, so C&R and controller assembly dominate",
		traffic: miceTraffic,
		slots:   1 << 16,
		tracker: afr.TrackerConfig{BufferKeys: 1 << 16, BloomBits: 1 << 20, BloomHashes: 3},
	},
	{
		name:    "zipf-durable-rdma",
		why:     "Zipf trace over RDMA collection with a WAL append and a checkpoint at every boundary",
		traffic: trace.DefaultConfig,
		slots:   1 << 14,
		durable: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// miceTraffic is 200k flows of at most six packets each. Mice alone never
// reach the threshold, so heavy bursts straddle the sub-window boundaries
// (the paper's Figure 1 shape): every window then holds heavy hitters to
// check, some of them visible only because the window slides.
func miceTraffic(seed int64) trace.Config {
	cfg := trace.DefaultConfig(seed)
	cfg.Flows = 200_000
	cfg.MaxFlowPackets = 6
	for i := 1; i < epochSubWins; i++ {
		cfg.Anomalies = append(cfg.Anomalies, trace.HeavyBurst{
			Key:     trace.BurstKey(i),
			Packets: 240,
			At:      int64(i) * int64(subWindow),
			Spread:  int64(60 * time.Millisecond),
		})
	}
	return cfg
}

// config builds the deployment configuration. dir is the checkpoint
// directory of durable workloads.
func (w workload) config(dir string) omniwindow.Config {
	slots := w.slots
	cfg := omniwindow.Config{
		SubWindow: subWindow,
		Plan:      omniwindow.Sliding(planSize, 1),
		Kind:      omniwindow.Frequency,
		Threshold: threshold,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMin(4, slots, uint64(region)), slots)
		},
		Slots:   slots,
		Tracker: w.tracker,
		Shards:  shards,
	}
	if w.durable {
		cfg.RDMA = true
		cfg.CheckpointDir = dir
	}
	return cfg
}

// pkt is one generated packet, stored without the OmniWindow header: a
// fifth of packet.Packet's size, and free of pointers, so the replayed
// epoch can live outside the Go heap.
type pkt struct {
	key   packet.FlowKey
	size  uint32
	seq   uint32
	time  int64
	flags uint8
	// sw is the packet's sub-window within the epoch.
	sw uint8
}

// epochTrace is one generated epoch and the exact heavy hitters of every
// window over its replay.
type epochTrace struct {
	// pkts lives outside the Go heap: the deployment's garbage collector
	// then paces on the deployment's own heap, as it would when fed from
	// the network, not on a load generator's trace many times its size.
	pkts    []pkt
	release func() error
	// truth[r] lists the flows reaching the threshold in every window whose
	// last sub-window is r modulo the epoch: replay makes sub-window j
	// carry the traffic of epoch sub-window j mod epochSubWins.
	truth [][]packet.FlowKey
}

// generate builds the epoch for seed. The generator's packets carry no
// OmniWindow header; one that did could not be stored compactly.
func generate(w workload, seed int64) (*epochTrace, error) {
	cfg := w.traffic(seed)
	if cfg.Duration != int64(epoch) {
		return nil, fmt.Errorf("workload %s: epoch is %v, want %v", w.name, time.Duration(cfg.Duration), epoch)
	}
	full := trace.New(cfg).Generate()
	pkts, release, err := allocPkts(len(full))
	if err != nil {
		return nil, err
	}
	counts := make([]map[packet.FlowKey]uint64, epochSubWins)
	for j := range counts {
		counts[j] = make(map[packet.FlowKey]uint64)
	}
	for i := range full {
		p := &full[i]
		if p.OW.Flag != packet.OWNone || p.Time < 0 || p.Time >= int64(epoch) {
			_ = release() // the error above is the one to report
			return nil, fmt.Errorf("workload %s: generated packet %d is not plain in-epoch traffic", w.name, i)
		}
		sw := int(p.Time / int64(subWindow))
		pkts[i] = pkt{key: p.Key, size: p.Size, seq: p.Seq, time: p.Time, flags: p.TCPFlags, sw: uint8(sw)}
		counts[sw][p.Key]++
	}
	return &epochTrace{pkts: pkts, release: release, truth: heavyHitters(counts)}, nil
}

// heavyHitters returns, for every residue r modulo the epoch, the flows
// whose exact count over the window ending at epoch sub-window r reaches
// the threshold. counts[j] is the exact count of every flow in epoch
// sub-window j.
func heavyHitters(counts []map[packet.FlowKey]uint64) [][]packet.FlowKey {
	out := make([][]packet.FlowKey, len(counts))
	for r := range out {
		sum := make(map[packet.FlowKey]uint64)
		for k := 0; k < planSize; k++ {
			for key, n := range counts[(r-k+len(counts))%len(counts)] {
				sum[key] += n
			}
		}
		for key, n := range sum {
			if n >= threshold {
				out[r] = append(out[r], key)
			}
		}
	}
	return out
}
