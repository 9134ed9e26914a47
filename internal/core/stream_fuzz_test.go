package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// randomInterleaving draws a (Time, Seq)-sorted stream over three traced
// PIDs: callback windows of every type with their ID-bearing events,
// plain, request and response writes, sync subscriptions, dispatch
// flags, P1 events naming a PID after some of its events, and sched
// switches and wakeups between traced and untraced threads. Every choice comes from pick(n), which returns a value in
// [0, n), so a seeded RNG and fuzz bytes drive the same generator.
//
// Stray and out-of-window events are drawn on purpose. The one rule the
// stream keeps is causality for service requests: a take_request only
// reads a (topic, srcTS) that some dds_write has already published, as
// in any real trace — the engine's caller search relies on it.
func randomInterleaving(pick func(n int) int, steps int) *trace.Trace {
	tr := &trace.Trace{}
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		tr.Append(e)
	}
	pids := []uint32{7, 8, 9}
	createNode := func(t sim.Time, pid uint32) {
		add(trace.Event{Time: t, PID: pid, Kind: trace.KindCreateNode,
			Node: string(rune('a' + pid - pids[0]))})
	}
	createNode(0, pids[0]) // the other PIDs are named mid-stream, or never
	starts := []trace.Kind{trace.KindTimerCBStart, trace.KindSubCBStart,
		trace.KindServiceCBStart, trace.KindClientCBStart}
	ends := map[trace.Kind]trace.Kind{
		trace.KindTimerCBStart:   trace.KindTimerCBEnd,
		trace.KindSubCBStart:     trace.KindSubCBEnd,
		trace.KindServiceCBStart: trace.KindServiceCBEnd,
		trace.KindClientCBStart:  trace.KindClientCBEnd,
	}
	writeTopics := []string{"/a", "/b", "rq/svRequest", "rr/svReply"}
	var requests []int64 // srcTS of the request writes so far
	open := map[uint32]trace.Kind{}
	now := sim.Time(10)
	for step := 0; step < steps; step++ {
		if pick(3) > 0 {
			now += sim.Time(pick(40))
		}
		pid := pids[pick(len(pids))]
		cbid := func() uint64 { return uint64(pid)<<4 | uint64(pick(3)) }
		srcTS := func() int64 { return int64(pick(4)) }
		switch pick(10) {
		case 0: // toggle a window
			if k, ok := open[pid]; ok {
				add(trace.Event{Time: now, PID: pid, Kind: ends[k]})
				delete(open, pid)
			} else {
				k := starts[pick(len(starts))]
				add(trace.Event{Time: now, PID: pid, Kind: k})
				open[pid] = k
			}
		case 1: // switch away to an untraced thread
			add(trace.Event{Time: now, Kind: trace.KindSchedSwitch, PrevPID: pid, NextPID: 1})
		case 2: // switch back from an untraced thread
			add(trace.Event{Time: now, Kind: trace.KindSchedSwitch, PrevPID: 1, NextPID: pid})
		case 3: // direct handoff between two traced threads
			add(trace.Event{Time: now, Kind: trace.KindSchedSwitch,
				PrevPID: pid, NextPID: pids[pick(len(pids))]})
		case 4:
			topic, ts := writeTopics[pick(len(writeTopics))], srcTS()
			if topic == "rq/svRequest" {
				requests = append(requests, ts)
			}
			add(trace.Event{Time: now, PID: pid, Kind: trace.KindDDSWrite, Topic: topic, SrcTS: ts})
		case 5:
			add(trace.Event{Time: now, PID: pid, Kind: trace.KindTimerCall, CBID: cbid()})
		case 6:
			add(trace.Event{Time: now, PID: pid, Kind: trace.KindTakeInt, CBID: cbid(),
				Topic: writeTopics[pick(2)], SrcTS: srcTS()})
		case 7:
			if len(requests) > 0 {
				add(trace.Event{Time: now, PID: pid, Kind: trace.KindTakeRequest, CBID: cbid(),
					Topic: "sv", SrcTS: requests[pick(len(requests))]})
			} else {
				add(trace.Event{Time: now, PID: pid, Kind: trace.KindTakeResponse, CBID: cbid(),
					Topic: "sv", SrcTS: srcTS()})
			}
		case 8:
			if pick(2) == 0 {
				add(trace.Event{Time: now, PID: pid, Kind: trace.KindTakeResponse, CBID: cbid(),
					Topic: "sv", SrcTS: srcTS()})
			} else {
				add(trace.Event{Time: now, PID: pid, Kind: trace.KindTakeTypeErased, Ret: uint64(pick(2))})
			}
		case 9:
			switch pick(3) {
			case 0:
				add(trace.Event{Time: now, PID: pid, Kind: trace.KindSyncSubscribe})
			case 1:
				add(trace.Event{Time: now, Kind: trace.KindSchedWakeup, PID: pid})
			case 2:
				createNode(now, pid)
			}
		}
	}
	for _, pid := range pids {
		if k, ok := open[pid]; ok {
			add(trace.Event{Time: now + 5, PID: pid, Kind: ends[k]})
		}
	}
	return tr
}

// bytePicker turns fuzz bytes into randomInterleaving choices; once the
// bytes run out every choice is 0.
func bytePicker(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c) % n
	}
}

// requireOracleAtCuts feeds tr to one SynthesizeSink and, at each cut
// (ascending event counts) and at the end, requires the sink's model
// and DAG to equal the batch oracle's over exactly the events observed
// so far — summary, DOT, callbacks and diagnostics.
func requireOracleAtCuts(t *testing.T, tr *trace.Trace, cuts []int) {
	t.Helper()
	n := tr.Len()
	s := NewSynthesizeSink()
	fed := 0
	for _, cut := range append(cuts, n) {
		for ; fed < cut; fed++ {
			s.Observe(tr.Events[fed])
		}
		got, gotD := s.Finish(), s.DAG()
		want := oracleExtractModel(&trace.Trace{Events: tr.Events[:cut:cut]})
		wantD := BuildDAG(want)
		where := fmt.Sprintf("prefix %d of %d", cut, n)
		if g, w := Summary(gotD), Summary(wantD); g != w {
			t.Fatalf("%s: summary differs\n--- engine ---\n%s--- oracle ---\n%s", where, g, w)
		}
		if g, w := ToDOT(gotD, "g"), ToDOT(wantD, "g"); g != w {
			t.Fatalf("%s: DOT differs\n--- engine ---\n%s--- oracle ---\n%s", where, g, w)
		}
		requireSameModel(t, got, want)
	}
	if s.OutOfOrder() != 0 {
		t.Fatalf("sorted stream counted %d out-of-order events", s.OutOfOrder())
	}
}

// FuzzModelBuilderOracle pins the engine to the batch oracle at every
// prefix a live session could snapshot: the first input draws the
// stream, the second up to eight cut points.
func FuzzModelBuilderOracle(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := sim.NewRNG(seed)
		stream := make([]byte, 1000)
		for i := range stream {
			stream[i] = byte(r.Intn(256))
		}
		f.Add(stream, []byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	// Late-P1 replay: PID 8 writes plain and request topics before a P1
	// names it, then runs a timer callback; PID 9 takes a response and
	// reads its dispatch flag inside a client instance that is open when
	// its P1 arrives.
	f.Add([]byte{1, 5, 1, 4, 0, 1, 1, 5, 1, 4, 2, 2, 1, 5, 1, 9, 2, 1, 5, 1, 0, 0, 0, 1, 5, 0, 0,
		1, 4, 2, 3, 1, 5, 1, 0, 0, 0, 7, 2, 2}, []byte{64, 128, 192})
	f.Add([]byte{1, 5, 2, 0, 3, 0, 2, 8, 0, 1, 1, 0, 0, 0, 2, 0, 0, 4, 3, 1, 0, 2, 8, 1, 1, 1, 5,
		2, 9, 2, 1, 5, 2, 0, 0, 0, 0}, []byte{64, 128, 192})
	f.Fuzz(func(t *testing.T, stream, cutBytes []byte) {
		tr := randomInterleaving(bytePicker(stream), min(len(stream)/3, 512))
		cuts := make([]int, 0, 8)
		for _, c := range cutBytes[:min(len(cutBytes), 8)] {
			cuts = append(cuts, int(c)*tr.Len()/256)
		}
		slices.Sort(cuts)
		requireOracleAtCuts(t, tr, cuts)
	})
}
