package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/service"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// The session every workload traces: rostracer -app both -cpus 12
// -segment 1s with the PID-filtered kernel tracer, and for live also
// -snapshot-every 5s with the metrics registry and default alerts.
const (
	session       = "both-run000"
	numCPUs       = 12
	segment       = sim.Second
	snapshotEvery = 5 * sim.Second
)

// sessionResult is what one traced session reports beyond its spans.
type sessionResult struct {
	events    int
	wall      time.Duration // the session from world creation to the last close
	payload   uint64        // perf payload bytes the tracers emitted
	lost      uint64
	writer    service.Stats
	heapN     uint64 // live heap after N segments (live sessions only)
	heap4N    uint64 // live heap after 4N segments
	heapPeak  uint64 // heap objects bytes, max over segment boundaries
	snapshots int
}

// tracedSession mirrors cmd/rostracer's traceOneRun for one session,
// timing every call into a layer's public API. It changes nothing the
// CLI does except that it logs nothing; the heap probes of a live
// session run outside every span and are excluded from wall. Each drain
// window (it fails if it lost records or found the disk down) and each
// snapshot counts as one operation in t.
func tracedSession(rec *Recorder, t *tally, store *trace.Store, outDir string, seed uint64, duration sim.Duration, live bool) (sessionResult, error) {
	var res sessionResult
	var excluded time.Duration
	start := time.Now()
	root := rec.Begin("session")

	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: numCPUs, Seed: seed})
	w.Runtime().SetHotThreshold(ebpf.DefaultHotThreshold())
	b, err := tracers.NewBundleCapacity(w.Runtime(), 0)
	if err != nil {
		return res, err
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	if err := b.StartInit(); err != nil {
		return res, err
	}
	if err := b.StartRT(); err != nil {
		return res, err
	}
	if err := b.StartKernel(true); err != nil {
		return res, err
	}
	harness.BuildBoth(1)(w)
	b.StopInit()

	var snapSvc *core.SnapshotService
	nextSnapAt := snapshotEvery
	writer := service.NewSessionWriter(store, session, service.Policy{})
	var msink *metrics.Sink
	var pm *metrics.PipelineMetrics
	var alerts *metrics.Alerts
	if live {
		snapSvc = core.NewSnapshotService()
		reg := metrics.NewRegistry()
		msink = metrics.NewSink(reg)
		pm = metrics.NewPipelineMetrics(reg)
		alerts = metrics.NewAlerts(reg, metrics.DefaultAlertRules())
	}
	sink := trace.NewIsolatingMultiSink()
	sink.Add("store", rec.Sink("service.writer.observe", writer))
	if snapSvc != nil {
		sink.Add("snapshot", rec.Sink("core.snapshot_service.observe", snapSvc))
	}
	if msink != nil {
		sink.Add("metrics", rec.Sink("metrics.sink.observe", msink))
	}
	defer sink.Close()

	nSegs := int(duration / segment)
	probeHeap := func() uint64 {
		t := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		excluded += time.Since(t)
		return ms.HeapAlloc
	}
	segIdx := 0
	var prevLost uint64
	for elapsed := sim.Duration(0); elapsed < duration; {
		step := segment
		if rest := duration - elapsed; step > rest {
			step = rest
		}
		rec.Time("rclcpp.World.Run", func() { w.Run(step) })
		elapsed += step
		b.MaxRingPending()
		lost := b.Lost() - prevLost
		prevLost = b.Lost()

		rec.Time("service.SessionWriter.BeginSegment", writer.BeginSegment)
		rec.Time("tracers.Bundle.StreamTo", func() { err = b.StreamTo(sink) })
		if err != nil {
			writer.Close()
			return res, err
		}
		var sr service.SegmentResult
		rec.Time("service.SessionWriter.EndSegment", func() { sr = writer.EndSegment() })
		res.events += sr.Persisted
		t.check(!sr.Down && lost == 0, "drain window %d: lost %d records, disk down %v", segIdx, lost, sr.Down)
		b.TierCounts()
		segIdx++
		if pm != nil {
			rec.Time("metrics.pipeline.update", func() {
				pm.UpdateBundle(b)
				pm.UpdateDrain(int64(step), segIdx, 0)
				pm.UpdateWriter(writer)
				pm.UpdateIntern()
				pm.UpdateSinks(sink)
				pm.UpdateSynthesis(snapSvc)
				alerts.Evaluate()
			})
		}
		if snapSvc != nil && elapsed >= nextSnapAt {
			var snap core.Snapshot
			rec.Time("core.SnapshotService.Snapshot", func() { snap = snapSvc.Snapshot() })
			rec.Time("core.snapshot.write", func() { err = writeSnapshot(outDir, session, snap) })
			if !t.check(err == nil, "snapshot %d: %v", snap.Seq, err) {
				return res, err
			}
			res.snapshots++
			for nextSnapAt <= elapsed {
				nextSnapAt += snapshotEvery
			}
		}
		if live && segIdx == nSegs/4 {
			res.heapN = probeHeap()
		}
		if live && segIdx == nSegs {
			res.heap4N = probeHeap()
		}
		res.heapPeak = max(res.heapPeak, heapObjects())
	}
	var cr service.SegmentResult
	rec.Time("service.SessionWriter.Close", func() { cr = writer.Close() })
	res.events += cr.Persisted
	if err := sink.Close(); err != nil {
		return res, fmt.Errorf("sink close: %w", err)
	}
	rec.End(root)
	res.wall = time.Since(start) - excluded

	res.writer = writer.Stats()
	res.payload = b.TraceBytes()
	res.lost = b.Lost()
	delivered := rec.Counter("service.writer.observe").Events
	t.check(delivered == int64(res.events), "store sink got %d events, persisted %d", delivered, res.events)
	if res.writer.Degraded() {
		return res, fmt.Errorf("persistence degraded: %d dropped, %d rotations (%v)",
			res.writer.Dropped, res.writer.Rotations, res.writer.LastErr)
	}
	if d := sink.Detached(); len(d) > 0 {
		return res, fmt.Errorf("sink %q detached: %v", d[0].Name, d[0].Err)
	}
	if alerts != nil {
		alerts.Evaluate()
		if f := alerts.Fired(); len(f) > 0 {
			return res, fmt.Errorf("alert %s fired", f[0].Rule.Name)
		}
	}
	return res, nil
}

// detachedRun runs the same seeded world with no tracers attached, the
// baseline the probe-fire cost is measured against.
func detachedRun(rec *Recorder, seed uint64, duration sim.Duration) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: numCPUs, Seed: seed})
	harness.BuildBoth(1)(w)
	for elapsed := sim.Duration(0); elapsed < duration; elapsed += segment {
		rec.Time("rclcpp.World.Run", func() { w.Run(min(segment, duration-elapsed)) })
	}
}

// writeSnapshot writes a snapshot's DOT and JSON files the way rostracer
// does (without its removal of partial files on failure: here a failure
// fails the run).
func writeSnapshot(dir, session string, snap core.Snapshot) error {
	base := fmt.Sprintf("%s/%s-snap%03d", dir, session, snap.Seq)
	title := fmt.Sprintf("%s snapshot %d", session, snap.Seq)
	if err := os.WriteFile(base+".dot", []byte(core.ToDOT(snap.DAG, title)), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	if err := core.WriteJSON(f, snap.DAG); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
