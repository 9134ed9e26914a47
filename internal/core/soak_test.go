package core

import (
	"runtime"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// TestSnapshotServiceSoak streams an AVP+SYN session through a
// SnapshotService, one snapshot per 1 s segment, and checks after every
// snapshot that synthesis retains no event and no open search state
// beyond what the latest segment left in flight: nothing is held for
// replay (every PID with callbacks is named at start-up), no
// take_response record or pending client lookup survives from one
// snapshot to the next, and the retained state at 4N segments is no
// larger than at N. HeapInuse at N and 4N is logged.
func TestSnapshotServiceSoak(t *testing.T) {
	const n = 10
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 12, Seed: 5})
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
	apps.BuildAVP(w, apps.AVPConfig{})
	apps.BuildSYN(w, apps.SYNConfig{})
	b.StopInit()

	svc := NewSnapshotService()
	eng := svc.b.eng
	var atN retainedState
	var heapN uint64
	prevRecs := map[*takeRec]bool{}
	prevPend := map[*pendingClient]bool{}
	for k := 1; k <= 4*n; k++ {
		w.Run(sim.Second)
		if err := b.StreamTo(svc); err != nil {
			t.Fatal(err)
		}
		snap := svc.Snapshot()
		r := svc.b.retained()
		if r.held != 0 || snap.BufferedROS != 0 {
			t.Fatalf("segment %d: %d events held for replay", k, r.held)
		}
		recs := map[*takeRec]bool{}
		for _, ps := range eng.pids {
			for _, rec := range ps.awaiting {
				if prevRecs[rec] {
					t.Fatalf("segment %d: a take_response record has awaited its P14 since the previous snapshot", k)
				}
				recs[rec] = true
			}
		}
		pend := map[*pendingClient]bool{}
		for _, p := range eng.pending {
			if prevPend[p] {
				t.Fatalf("segment %d: a client lookup has stayed open since the previous snapshot", k)
			}
			pend[p] = true
		}
		prevRecs, prevPend = recs, pend
		if k != n && k != 4*n {
			continue
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		t.Logf("%2d segments: retained %+v, %d request and %d response answers, HeapInuse %.1f MB",
			k, r, len(eng.callerOf), len(eng.clients), float64(ms.HeapInuse)/(1<<20))
		if k == n {
			atN, heapN = r, ms.HeapInuse
			continue
		}
		if r.held+r.awaiting+r.takes+r.pending+r.slots > atN.held+atN.awaiting+atN.takes+atN.pending+atN.slots {
			t.Fatalf("retained state grew from %+v at %d segments to %+v at %d", atN, n, r, 4*n)
		}
		t.Logf("HeapInuse %d segments / %d segments: %.2f", 4*n, n, float64(ms.HeapInuse)/float64(heapN))
	}
}
