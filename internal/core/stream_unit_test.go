package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// streamModel feeds a (Time, Seq)-sorted trace through the incremental
// builder, the way the streaming drain would.
func streamModel(tr *trace.Trace) *Model {
	mb := NewModelBuilder()
	for _, e := range tr.Events {
		mb.Observe(e)
	}
	return mb.Finish()
}

// requireSameModel fails unless the two models are deeply identical.
func requireSameModel(t *testing.T, got, want *Model) {
	t.Helper()
	if !reflect.DeepEqual(got.NodeOf, want.NodeOf) {
		t.Fatalf("NodeOf differs: %v vs %v", got.NodeOf, want.NodeOf)
	}
	if len(got.Callbacks) != len(want.Callbacks) {
		t.Fatalf("callback count %d vs %d", len(got.Callbacks), len(want.Callbacks))
	}
	for i := range want.Callbacks {
		if !reflect.DeepEqual(got.Callbacks[i], want.Callbacks[i]) {
			t.Fatalf("callback %d differs:\n stream: %+v\n batch:  %+v",
				i, got.Callbacks[i], want.Callbacks[i])
		}
	}
	if !reflect.DeepEqual(got.Diags, want.Diags) {
		t.Fatalf("diagnostics differ: %v vs %v", got.Diags, want.Diags)
	}
}

// TestModelBuilderMatchesExtractModelSimple pins the streaming builder
// to the batch oracle on the hand-written producer/consumer trace.
func TestModelBuilderMatchesExtractModelSimple(t *testing.T) {
	tr := buildTrace()
	requireSameModel(t, streamModel(tr), oracleExtractModel(tr))
}

// TestModelBuilderBoundarySwitches exercises the (Time, Seq) window
// bracketing Algorithm 2 needs when switches share a timestamp with the
// start or end probe: emitted-before-start and emitted-after-end
// switches must not count, emitted-inside ones must.
func TestModelBuilderBoundarySwitches(t *testing.T) {
	tr := &trace.Trace{}
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		tr.Append(e)
	}
	add(trace.Event{Time: 0, PID: 7, Kind: trace.KindCreateNode, Node: "n"})
	// Switch out at t=100 emitted BEFORE the start probe at t=100: the
	// callback had not started; must be ignored.
	add(trace.Event{Time: 100, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})
	add(trace.Event{Time: 100, PID: 7, Kind: trace.KindTimerCBStart})
	add(trace.Event{Time: 100, PID: 7, Kind: trace.KindTimerCall, CBID: 0xC})
	// Preemption inside the window, sharing the start timestamp but
	// emitted after the start probe: counts.
	add(trace.Event{Time: 100, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})
	add(trace.Event{Time: 160, Kind: trace.KindSchedSwitch, PrevPID: 1, NextPID: 7})
	// Same thread as prev and next (yield to self): suspend wins.
	add(trace.Event{Time: 180, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 7})
	add(trace.Event{Time: 190, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 7})
	add(trace.Event{Time: 200, PID: 7, Kind: trace.KindTimerCBEnd})
	// Switch at the end timestamp emitted after the end probe: ignored.
	add(trace.Event{Time: 200, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})

	got, want := streamModel(tr), oracleExtractModel(tr)
	requireSameModel(t, got, want)
	if len(want.Callbacks) != 1 || len(want.Callbacks[0].Instances) != 1 {
		t.Fatalf("unexpected extraction shape: %+v", want.Callbacks)
	}
	// Window [100,200]: on-CPU [100,100] + [160,180] + [190,200] = 30.
	if et := want.Callbacks[0].Instances[0].ET; et != 30 {
		t.Fatalf("batch ET = %v, want 30", et)
	}
}

// TestModelBuilderRandomInterleavings is the extraction-level property
// test: random sorted interleavings of callback windows, ROS events and
// switches over several PIDs produce byte-identical models through the
// builder and the batch oracle — at three random mid-stream Finish
// calls as well as at the end, so pending lookups that resolve only
// after a fold are covered.
func TestModelBuilderRandomInterleavings(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRNG(seed)
		tr := randomInterleaving(r.Intn, 300)
		cuts := []int{r.Intn(tr.Len()), r.Intn(tr.Len()), r.Intn(tr.Len())}
		slices.Sort(cuts)
		requireOracleAtCuts(t, tr, cuts)
	}
}

// TestModelBuilderFoldsSchedEvents checks the memory contract: scheduler
// events stream through without being buffered, and a named PID's ROS
// events step its machine without being held.
func TestModelBuilderFoldsSchedEvents(t *testing.T) {
	mb := NewModelBuilder()
	mb.Observe(trace.Event{Time: 1, Seq: 0, PID: 7, Kind: trace.KindCreateNode, Node: "n"})
	for i := 0; i < 1000; i++ {
		mb.Observe(trace.Event{Time: sim.Time(2 + i), Seq: uint64(1 + i),
			Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})
	}
	if mb.BufferedROSEvents() != 0 {
		t.Fatalf("builder buffered %d ROS events, want 0", mb.BufferedROSEvents())
	}
	if mb.SchedEventsFolded() != 1000 {
		t.Fatalf("folded %d sched events, want 1000", mb.SchedEventsFolded())
	}
}

// TestModelBuilderCountsOutOfOrder checks the runtime order check: a
// sorted stream counts nothing, and swapping one adjacent pair counts
// exactly the one event that arrived below its predecessor — through
// the builder and through a snapshot — and ExtractModel still sorts.
func TestModelBuilderCountsOutOfOrder(t *testing.T) {
	tr := buildTrace()
	sorted := NewModelBuilder()
	for _, e := range tr.Events {
		sorted.Observe(e)
	}
	if n := sorted.OutOfOrder(); n != 0 {
		t.Fatalf("sorted stream: OutOfOrder = %d, want 0", n)
	}
	evs := append([]trace.Event(nil), tr.Events...)
	i := len(evs) / 2
	evs[i], evs[i+1] = evs[i+1], evs[i]
	b := NewModelBuilder()
	svc := NewSnapshotService()
	for _, e := range evs {
		b.Observe(e)
		svc.Observe(e)
	}
	if n := b.OutOfOrder(); n != 1 {
		t.Fatalf("one swapped pair: OutOfOrder = %d, want 1", n)
	}
	if n := svc.Snapshot().OutOfOrder; n != 1 {
		t.Fatalf("one swapped pair: Snapshot.OutOfOrder = %d, want 1", n)
	}
	// ExtractModel re-streams an out-of-order trace from a sorted clone.
	requireSameModel(t, ExtractModel(&trace.Trace{Events: evs}), oracleExtractModel(tr))
}

// retainedState counts what the builder holds besides the model and the
// resolved search answers (FindCaller's per-request answer and each
// final FindClient answer, one small entry per service call).
type retainedState struct {
	open     int // Algorithm 2 windows open
	held     int // events held for late-P1 replay
	awaiting int // take_response records waiting for their PID's next P14
	takes    int // take_response records of lookups not yet final
	pending  int // client lookups not yet final
	slots    int // diagnostic slots of pending lookups (hidden or shown)
}

func (b *ModelBuilder) retained() retainedState {
	r := retainedState{open: len(b.open), held: b.eng.held, pending: len(b.eng.pending)}
	for _, ps := range b.eng.pids {
		r.awaiting += len(ps.awaiting)
		if ps.mach != nil {
			for _, slot := range ps.mach.diags {
				if slot.pend != nil {
					r.slots++
				}
			}
		}
	}
	for _, l := range b.eng.clients {
		r.takes += len(l.takes)
	}
	return r
}

// TestModelBuilderStateBounded checks the builder's memory contract:
// once every callback window has closed and every response reached its
// client, Finish leaves no open window, no held event, no take record,
// and no pending lookup or diagnostic slot but the one response that
// never reached its client — including for non-dispatched client
// instances, whose windows no callback consumes — so no builder state
// besides the model grows with the number of callback instances
// observed.
func TestModelBuilderStateBounded(t *testing.T) {
	b := NewModelBuilder()
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		b.Observe(e)
	}
	add(trace.Event{PID: 10, Kind: trace.KindCreateNode, Node: "caller"})
	add(trace.Event{PID: 20, Kind: trace.KindCreateNode, Node: "server"})
	add(trace.Event{PID: 30, Kind: trace.KindCreateNode, Node: "client"})
	add(trace.Event{PID: 40, Kind: trace.KindCreateNode, Node: "owner"})
	// One response reaches only a client it does not belong to: its
	// lookup stays open, with no take record left, and its diagnostic
	// stays shown.
	add(trace.Event{Time: 1, PID: 20, Kind: trace.KindServiceCBStart})
	add(trace.Event{Time: 1, PID: 20, Kind: trace.KindTakeRequest, CBID: 0xB, Topic: "sv", SrcTS: -2})
	add(trace.Event{Time: 2, PID: 20, Kind: trace.KindDDSWrite, Topic: "rr/svReply", SrcTS: -1})
	add(trace.Event{Time: 3, PID: 20, Kind: trace.KindServiceCBEnd})
	add(trace.Event{Time: 4, PID: 30, Kind: trace.KindClientCBStart})
	add(trace.Event{Time: 4, PID: 30, Kind: trace.KindTakeResponse, CBID: 0xC, Topic: "sv", SrcTS: -1})
	add(trace.Event{Time: 5, PID: 30, Kind: trace.KindTakeTypeErased, Ret: 0})
	add(trace.Event{Time: 5, PID: 30, Kind: trace.KindClientCBEnd})
	for round := 1; round <= 4; round++ {
		for i := 0; i < 50*round; i++ {
			base := sim.Time(int(seq) * 100)
			ts := int64(base)
			add(trace.Event{Time: base, PID: 10, Kind: trace.KindTimerCBStart})
			add(trace.Event{Time: base, PID: 10, Kind: trace.KindTimerCall, CBID: 0xA})
			add(trace.Event{Time: base + 1, PID: 10, Kind: trace.KindDDSWrite, Topic: "rq/svRequest", SrcTS: ts})
			add(trace.Event{Time: base + 2, Kind: trace.KindSchedSwitch, PrevPID: 10, NextPID: 20})
			add(trace.Event{Time: base + 3, PID: 10, Kind: trace.KindTimerCBEnd})
			add(trace.Event{Time: base + 4, PID: 20, Kind: trace.KindServiceCBStart})
			add(trace.Event{Time: base + 4, PID: 20, Kind: trace.KindTakeRequest, CBID: 0xB, Topic: "sv", SrcTS: ts})
			add(trace.Event{Time: base + 5, PID: 20, Kind: trace.KindDDSWrite, Topic: "rr/svReply", SrcTS: ts + 5})
			add(trace.Event{Time: base + 6, PID: 20, Kind: trace.KindServiceCBEnd})
			// The response reaches a client it does not belong to (P14
			// returns 0): the window closes, but no instance consumes it.
			add(trace.Event{Time: base + 7, PID: 30, Kind: trace.KindClientCBStart})
			add(trace.Event{Time: base + 7, PID: 30, Kind: trace.KindTakeResponse, CBID: 0xC, Topic: "sv", SrcTS: ts + 5})
			add(trace.Event{Time: base + 8, PID: 30, Kind: trace.KindTakeTypeErased, Ret: 0})
			add(trace.Event{Time: base + 8, PID: 30, Kind: trace.KindClientCBEnd})
			// ... and then the client it belongs to, which makes the
			// lookup final: its take record and diagnostic slot go.
			add(trace.Event{Time: base + 9, PID: 40, Kind: trace.KindClientCBStart})
			add(trace.Event{Time: base + 9, PID: 40, Kind: trace.KindTakeResponse, CBID: 0xD, Topic: "sv", SrcTS: ts + 5})
			add(trace.Event{Time: base + 10, PID: 40, Kind: trace.KindTakeTypeErased, Ret: 1})
			add(trace.Event{Time: base + 11, PID: 40, Kind: trace.KindClientCBEnd})
		}
		m := b.Finish()
		if len(m.Callbacks) != 4 || m.Callbacks[0].Stats.Count != 50*round*(round+1)/2 || len(m.Diags) != 2 {
			t.Fatalf("round %d: unexpected model %v, diagnostics %v", round, m.Callbacks, m.Diags)
		}
		if r, want := b.retained(), (retainedState{pending: 1, slots: 1}); r != want {
			t.Fatalf("round %d: retained %+v after Finish; want %+v", round, r, want)
		}
	}
}

// TestModelBuilderReplayRule pins the late-P1 replay rule to the oracle
// at every prefix: a sensor-like PID that only writes before a P1 names
// it holds nothing back, and a PID named while one of its callback
// instances is open holds that instance from its start and replays it.
func TestModelBuilderReplayRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []trace.Event
		held   []int // BufferedROSEvents after each event
	}{
		{"sensor writes before its P1", []trace.Event{
			{PID: 7, Kind: trace.KindCreateNode, Node: "server"},
			{Time: 10, PID: 2, Kind: trace.KindDDSWrite, Topic: "/points", SrcTS: 10},
			{Time: 11, PID: 2, Kind: trace.KindDDSWrite, Topic: "rq/svRequest", SrcTS: 11},
			{Time: 12, PID: 7, Kind: trace.KindServiceCBStart},
			{Time: 12, PID: 7, Kind: trace.KindTakeRequest, CBID: 0x71, Topic: "sv", SrcTS: 11},
			{Time: 13, PID: 7, Kind: trace.KindServiceCBEnd},
			{Time: 20, PID: 2, Kind: trace.KindCreateNode, Node: "sensor"},
			{Time: 30, PID: 2, Kind: trace.KindTimerCBStart},
			{Time: 30, PID: 2, Kind: trace.KindTimerCall, CBID: 0x21},
			{Time: 31, PID: 2, Kind: trace.KindDDSWrite, Topic: "rq/svRequest", SrcTS: 31},
			{Time: 32, PID: 2, Kind: trace.KindTimerCBEnd},
			{Time: 33, PID: 7, Kind: trace.KindServiceCBStart},
			{Time: 33, PID: 7, Kind: trace.KindTakeRequest, CBID: 0x71, Topic: "sv", SrcTS: 31},
			{Time: 34, PID: 7, Kind: trace.KindServiceCBEnd},
		}, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"P1 inside an open instance", []trace.Event{
			{PID: 7, Kind: trace.KindCreateNode, Node: "server"},
			{Time: 5, PID: 9, Kind: trace.KindDDSWrite, Topic: "/early", SrcTS: 5},
			{Time: 10, PID: 7, Kind: trace.KindServiceCBStart},
			{Time: 11, PID: 7, Kind: trace.KindDDSWrite, Topic: "rr/svReply", SrcTS: 11},
			{Time: 12, PID: 7, Kind: trace.KindServiceCBEnd},
			{Time: 20, PID: 9, Kind: trace.KindClientCBStart},
			{Time: 21, Kind: trace.KindSchedSwitch, PrevPID: 9, NextPID: 1},
			{Time: 21, PID: 9, Kind: trace.KindTakeResponse, CBID: 0x91, Topic: "sv", SrcTS: 11},
			{Time: 25, Kind: trace.KindSchedSwitch, PrevPID: 1, NextPID: 9},
			{Time: 26, PID: 9, Kind: trace.KindTakeTypeErased, Ret: 1},
			{Time: 27, PID: 9, Kind: trace.KindCreateNode, Node: "client"},
			{Time: 28, PID: 9, Kind: trace.KindDDSWrite, Topic: "/out", SrcTS: 28},
			{Time: 29, PID: 9, Kind: trace.KindClientCBEnd},
			{Time: 40, PID: 9, Kind: trace.KindClientCBStart},
			{Time: 41, PID: 9, Kind: trace.KindClientCBEnd},
		}, []int{0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 0, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &trace.Trace{}
			b := NewModelBuilder()
			for i, e := range tc.events {
				e.Seq = uint64(i)
				tr.Append(e)
				b.Observe(e)
				if got := b.BufferedROSEvents(); got != tc.held[i] {
					t.Fatalf("after event %d: %d events held, want %d", i, got, tc.held[i])
				}
			}
			cuts := make([]int, tr.Len())
			for i := range cuts {
				cuts[i] = i
			}
			requireOracleAtCuts(t, tr, cuts)
		})
	}
}
