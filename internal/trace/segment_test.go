package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// writeSessionSegments saves the given per-segment event slices as one
// store session and returns the store.
func writeSessionSegments(t *testing.T, session string, segs [][]Event) *Store {
	t.Helper()
	return writeSessionSegmentsFormat(t, session, segs, 0)
}

// writeSessionSegmentsFormat is writeSessionSegments with an explicit
// store format (0 = store default). Byte-surgery tests that do v1
// record-boundary arithmetic pin FormatV1.
func writeSessionSegmentsFormat(t *testing.T, session string, segs [][]Event, format Format) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Format = format
	for i, evs := range segs {
		sw, err := st.WriteSegment(session, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSegmentWriterMatchesWriteBinary pins the streaming encoder to the
// batch one byte for byte: observing events one at a time must produce
// exactly the bytes WriteBinary produces for the whole trace.
func TestSegmentWriterMatchesWriteBinary(t *testing.T) {
	evs := sampleEvents()

	var batch bytes.Buffer
	if err := WriteBinary(&batch, &Trace{Events: evs}); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	sw := NewSegmentWriter(&streamed)
	for _, e := range evs {
		sw.Observe(e)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != len(evs) {
		t.Fatalf("Count = %d, want %d", sw.Count(), len(evs))
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Fatalf("streamed encoding differs from WriteBinary: %d vs %d bytes",
			streamed.Len(), batch.Len())
	}
}

// TestSegmentWriterStickyError checks an unencodable event stops the
// stream and surfaces from Err and Close, and that later events are not
// written.
func TestSegmentWriterStickyError(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf)
	sw.Observe(Event{Time: 1, Seq: 1, Kind: KindSubCBStart})
	sw.Observe(Event{Time: 2, Seq: 2, Kind: KindDDSWrite, Topic: strings.Repeat("x", 0x10000)})
	sw.Observe(Event{Time: 3, Seq: 3, Kind: KindSubCBEnd})
	if sw.Err() == nil {
		t.Fatal("oversized string field accepted")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close did not report the encode error")
	}
	if sw.Count() != 1 {
		t.Fatalf("Count = %d after sticky error, want 1", sw.Count())
	}
}

// TestSegmentWriterObserveAfterClose checks that writing to a closed
// writer surfaces an error instead of silently buffering into a flushed
// (and possibly closed) destination.
func TestSegmentWriterObserveAfterClose(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf)
	sw.Observe(Event{Time: 1, Seq: 1, Kind: KindSubCBStart})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sw.Observe(Event{Time: 2, Seq: 2, Kind: KindSubCBEnd})
	if sw.Err() == nil {
		t.Fatal("Observe after Close reported no error")
	}
	if sw.Count() != 1 {
		t.Fatalf("Count = %d after closed write, want 1", sw.Count())
	}
}

// TestLoadSessionSortsUnsortedSegment preserves the historical Merge
// safety net's observable result: a trace saved out of (Time, Seq)
// order still loads as a sorted trace. The normalization now happens at
// SaveSegment time — the streaming read path merges and cannot re-sort,
// so segments are required sorted on disk.
func TestLoadSessionSortsUnsortedSegment(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	unsorted := &Trace{Events: []Event{
		{Time: 30, Seq: 3, Kind: KindSubCBEnd, PID: 1},
		{Time: 10, Seq: 1, Kind: KindSubCBStart, PID: 1},
		{Time: 20, Seq: 2, Kind: KindTakeInt, PID: 1, Topic: "t"},
	}}
	if err := st.SaveSegment("run", 0, unsorted); err != nil {
		t.Fatal(err)
	}
	tr, err := st.LoadSession("run")
	if err != nil {
		t.Fatal(err)
	}
	want := unsorted.Clone()
	want.SortByTime()
	if !reflect.DeepEqual(tr.Events, want.Events) {
		t.Fatalf("unsorted segment not re-sorted: %v", tr.Events)
	}
}

// TestStreamSessionRejectsUnsortedSegment checks the strict store
// cursors fail loudly on a segment file whose records are out of
// (Time, Seq) order — written behind the store's back, since SaveSegment
// normalizes — instead of silently feeding a misordered stream to
// Algorithm 2.
func TestStreamSessionRejectsUnsortedSegment(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(st.Dir(), "run-0000.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	unsorted := &Trace{Events: []Event{
		{Time: 30, Seq: 3, Kind: KindSubCBEnd, PID: 1},
		{Time: 10, Seq: 1, Kind: KindSubCBStart, PID: 1},
	}}
	if err := WriteBinary(f, unsorted); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var col Collector
	err = st.StreamSession("run", &col)
	if err == nil {
		t.Fatal("out-of-order segment streamed without error")
	}
	if !strings.Contains(err.Error(), "order") || !strings.Contains(err.Error(), "run-0000.rtrc") {
		t.Fatalf("unexpected error for out-of-order segment: %v", err)
	}
	// The plain codec keeps accepting the same bytes: ordering is a
	// store contract, not a codec one.
	if _, err := st.LoadSegment("run", 0); err != nil {
		t.Fatalf("ReadBinary rejected an unsorted (but well-formed) trace: %v", err)
	}
}

// drainCursor pulls a cursor dry, returning the yielded events and the
// terminating error (nil at clean EOF).
func drainCursor(c Cursor) ([]Event, error) {
	var evs []Event
	for {
		ev, ok, err := c.Next()
		if err != nil {
			return evs, err
		}
		if !ok {
			return evs, nil
		}
		evs = append(evs, ev)
	}
}

// TestFileCursorMatchesReadBinary checks the cursor yields exactly the
// events ReadBinary decodes from the same bytes.
func TestFileCursorMatchesReadBinary(t *testing.T) {
	data := encodeSample(t)
	want, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainCursor(NewFileCursor(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Events) {
		t.Fatalf("cursor events differ from ReadBinary:\n got %v\nwant %v", got, want.Events)
	}
}

// sessionEvents builds a deterministic multi-segment session: segments
// partition one globally (Time, Seq)-ordered stream round-robin with
// random run lengths, the shape successive periodic drains produce.
func sessionEvents(seed int64, nSegs, total int) [][]Event {
	rng := rand.New(rand.NewSource(seed))
	segs := make([][]Event, nSegs)
	now := int64(0)
	topics := []string{"lidar_front/points_raw", "lidar_rear/points_raw", "rq/sv3Request"}
	for i := 0; i < total; i++ {
		if rng.Intn(3) == 0 {
			now += int64(rng.Intn(40))
		}
		var ev Event
		switch i % 4 {
		case 0:
			ev = Event{Kind: KindSubCBStart, PID: uint32(100 + i%3)}
		case 1:
			ev = Event{Kind: KindTakeInt, PID: uint32(100 + i%3), CBID: uint64(i),
				Topic: topics[i%len(topics)], SrcTS: now - 5}
		case 2:
			ev = Event{Kind: KindSchedSwitch, CPU: int32(i % 4), PrevPID: uint32(100 + i%3),
				NextPID: uint32(100 + (i+1)%3), PrevPrio: 5, NextPrio: 9}
		case 3:
			ev = Event{Kind: KindSubCBEnd, PID: uint32(100 + i%3)}
		}
		ev.Time = sim.Time(now)
		ev.Seq = uint64(i + 1)
		seg := (i * nSegs) / total // contiguous runs per segment, like periodic drains
		segs[seg] = append(segs[seg], ev)
	}
	return segs
}

// TestStoreStreamSessionMatchesBatchMerge is the store-level equivalence
// pin: StreamSession into a Collector must reproduce, event for event,
// what the historical batch path produced — read every segment with
// ReadBinary, then Merge — and LoadSession (now a wrapper) must agree.
func TestStoreStreamSessionMatchesBatchMerge(t *testing.T) {
	segs := sessionEvents(7, 5, 400)
	st := writeSessionSegments(t, "run1", segs)

	// Historical batch path, reconstructed inline.
	var traces []*Trace
	for i := range segs {
		tr, err := st.LoadSegment("run1", i)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	want := Merge(traces...)

	var col Collector
	if err := st.StreamSession("run1", &col); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Trace.Events, want.Events) {
		t.Fatalf("StreamSession differs from batch merge: %d vs %d events",
			col.Trace.Len(), want.Len())
	}

	loaded, err := st.LoadSession("run1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Events, want.Events) {
		t.Fatal("LoadSession differs from batch merge")
	}
}

// TestStreamSessionMissing preserves the no-segments error contract.
func TestStreamSessionMissing(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var col Collector
	if err := st.StreamSession("nope", &col); err == nil {
		t.Fatal("missing session streamed")
	}
	if _, err := st.QuerySession("nope", Filter{}, &col); err == nil {
		t.Fatal("missing session queried")
	}
	if _, err := st.SalvageSession("nope", nil); err == nil {
		t.Fatal("missing session salvaged")
	}
}

// TestSegmentCrashRecovery simulates a SegmentWriter killed mid-write by
// truncating a finished segment at every byte boundary of its last
// record. FileCursor must yield every complete record and then either
// end cleanly (truncation at the record boundary) or fail — and no
// partial-record event may ever reach a sink.
func TestSegmentCrashRecovery(t *testing.T) {
	// A (Time, Seq)-sorted fixture, as every real drain writes: the
	// session-level assertion below must fail on the truncation, not on
	// the strict order check.
	evs := sampleEvents()
	tr := Trace{Events: evs}
	tr.SortByTime()
	evs = tr.Events
	// v1 pinned: the sweep below does v1 record-boundary arithmetic
	// (WriteBinary prefixes). TestSegmentCrashRecoveryV2 is the v2 twin.
	st := writeSessionSegmentsFormat(t, "run1", [][]Event{evs}, FormatV1)
	path := filepath.Join(st.Dir(), "run1-0000.rtrc")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Find where the last record starts: re-encode everything but the
	// last event.
	var head bytes.Buffer
	if err := WriteBinary(&head, &Trace{Events: evs[:len(evs)-1]}); err != nil {
		t.Fatal(err)
	}
	lastStart := head.Len()
	want := evs[:len(evs)-1]

	for cut := lastStart; cut < len(full); cut++ {
		got, err := drainCursor(NewFileCursor(bytes.NewReader(full[:cut])))
		if cut == lastStart {
			// Killed exactly between records: a clean, shorter segment.
			if err != nil {
				t.Fatalf("cut %d: boundary truncation rejected: %v", cut, err)
			}
		} else if err == nil {
			t.Fatalf("cut %d: mid-record truncation accepted", cut)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: recovered %d events, want the %d complete ones", cut, len(got), len(want))
		}
	}

	// The whole-session path rejects the damaged segment too, naming it.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var col Collector
	err = st.StreamSession("run1", &col)
	if err == nil {
		t.Fatal("truncated segment streamed without error")
	}
	if !strings.Contains(err.Error(), "run1-0000.rtrc") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not name the damaged segment and the truncation: %v", err)
	}
}

// TestStreamSessionPeakBuffering asserts the streaming read path's
// memory is independent of session length: allocations for a 20x larger
// session must stay within a small constant factor (they are O(segment
// cursors), not O(events)).
func TestStreamSessionPeakBuffering(t *testing.T) {
	drainAllocs := func(total int) float64 {
		st := writeSessionSegments(t, "s", sessionEvents(11, 4, total))
		var sink SinkFunc = func(Event) {}
		return testing.AllocsPerRun(5, func() {
			if err := st.StreamSession("s", sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := drainAllocs(150)
	large := drainAllocs(150 * 20)
	if large > small*2 {
		t.Fatalf("allocations scale with session size: %v for 150 events, %v for 3000", small, large)
	}
}
