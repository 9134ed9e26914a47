package core_test

import (
	"sync"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// TestSnapshotServiceMatchesBatch streams a traced session into the
// snapshot service segment by segment — taking an intermediate snapshot
// after every drain, the -snapshot-every loop's shape — and checks the
// final snapshot equals the batch pipeline's artifacts byte for byte.
// Intermediate Finish calls must not perturb later ones.
func TestSnapshotServiceMatchesBatch(t *testing.T) {
	build := func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
		apps.BuildSYN(w, apps.SYNConfig{})
	}
	run := func(sink trace.Sink, segmented bool) *trace.Trace {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 17})
		b, err := tracers.NewBundle(w.Runtime())
		if err != nil {
			t.Fatal(err)
		}
		tracers.BridgeSched(w.Machine(), w.Runtime())
		for _, err := range []error{b.StartInit(), b.StartRT(), b.StartKernel(true)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		build(w)
		b.StopInit()
		if segmented {
			for i := 0; i < 4; i++ {
				w.Run(sim.Second)
				if err := b.StreamTo(sink); err != nil {
					t.Fatal(err)
				}
			}
			return nil
		}
		w.Run(4 * sim.Second)
		tr, err := b.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	svc := core.NewSnapshotService()
	var seen []core.Snapshot
	run(trace.SinkFunc(func(e trace.Event) {
		svc.Observe(e)
		// An intermediate snapshot roughly mid-stream exercises
		// re-finishing with windows still open.
		if svc.EventsObserved() == 1000 {
			seen = append(seen, svc.Snapshot())
		}
	}), true)
	final := svc.Snapshot()
	seen = append(seen, final)

	tr := run(nil, false)
	want := core.OracleSynthesize(tr)

	if got, wantTxt := core.Summary(final.DAG), core.Summary(want); got != wantTxt {
		t.Fatalf("final snapshot summary differs from batch:\n--- snapshot ---\n%s--- batch ---\n%s", got, wantTxt)
	}
	if got, wantTxt := core.ToDOT(final.DAG, "g"), core.ToDOT(want, "g"); got != wantTxt {
		t.Fatalf("final snapshot DOT differs from batch")
	}
	if final.Events != uint64(tr.Len()) {
		t.Fatalf("snapshot saw %d events, batch trace has %d", final.Events, tr.Len())
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Seq <= seen[i-1].Seq || seen[i].Events < seen[i-1].Events ||
			seen[i].FoldedSched < seen[i-1].FoldedSched {
			t.Fatalf("snapshot counters regressed: %+v then %+v", seen[i-1], seen[i])
		}
	}
}

// TestSnapshotServiceConcurrent hammers the service with concurrent
// Observe batches while a snapshotter runs — the long-running tracer
// shape, under -race — and asserts monotonicity: every snapshot's
// folded-event count is non-decreasing, and the final totals are exact.
func TestSnapshotServiceConcurrent(t *testing.T) {
	svc := core.NewSnapshotService()

	const producers = 4
	const batches = 50
	const batchLen = 20

	// Sched-only batches: folding them never opens windows, so totals
	// are exact regardless of producer interleaving.
	mkBatch := func(p, b int) []trace.Event {
		evs := make([]trace.Event, batchLen)
		for i := range evs {
			evs[i] = trace.Event{
				Time: sim.Time(b*batchLen + i), Seq: uint64(p*batches*batchLen + b*batchLen + i),
				Kind: trace.KindSchedSwitch, PrevPID: uint32(p + 1), NextPID: uint32(p + 2),
			}
		}
		return evs
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps []core.Snapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snaps = append(snaps, svc.Snapshot())
			}
		}
	}()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for b := 0; b < batches; b++ {
				svc.ObserveBatch(mkBatch(p, b))
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()

	final := svc.Snapshot()
	const total = producers * batches * batchLen
	if final.Events != total || final.FoldedSched != total {
		t.Fatalf("final snapshot: %d events / %d folded, want %d", final.Events, final.FoldedSched, total)
	}
	snaps = append(snaps, final)
	for i := 1; i < len(snaps); i++ {
		if snaps[i].FoldedSched < snaps[i-1].FoldedSched {
			t.Fatalf("snapshot %d folded %d after %d: not monotone",
				i, snaps[i].FoldedSched, snaps[i-1].FoldedSched)
		}
		if snaps[i].Events < snaps[i-1].Events {
			t.Fatalf("snapshot %d events %d after %d: not monotone",
				i, snaps[i].Events, snaps[i-1].Events)
		}
		if snaps[i].Seq != snaps[i-1].Seq+1 {
			t.Fatalf("snapshot seq not sequential: %d then %d", snaps[i-1].Seq, snaps[i].Seq)
		}
	}
}
