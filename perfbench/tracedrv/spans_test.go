package main

import (
	"testing"
	"time"

	"github.com/tracesynth/rostracer/internal/trace"
)

func TestSelfTimeSubtractsChildrenAndOwnSinkTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1, SinkNs: 25},
		{Name: "a", Start: 10, End: 30, Parent: 0, SinkNs: 5},
		{Name: "a.inner", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 25, End: 50, Parent: 0},  // overlaps a: 10..50 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
	}
	// root: 100 - covered(10..50, 90..100 = 50) - own sink (25 - 5 in a) = 30
	if got := selfTime(spans, 0); got != 30 {
		t.Errorf("root self = %d, want 30", got)
	}
	// a: 20 - covered 8 - own sink 5 = 7; grandchildren are not a's children's business
	if got := selfTime(spans, 1); got != 7 {
		t.Errorf("a self = %d, want 7", got)
	}
	if got := selfTime(spans, 2); got != 8 {
		t.Errorf("leaf self = %d, want its duration 8", got)
	}
}

func TestRecorderChargesSinkTimeToOpenSpans(t *testing.T) {
	r := NewRecorder()
	slow := r.Sink("slow", trace.SinkFunc(func(trace.Event) { time.Sleep(2 * time.Millisecond) }))
	outer := r.Begin("outer")
	inner := r.Time("inner", func() { slow.Observe(trace.Event{}) })
	slow.Observe(trace.Event{})
	r.End(outer)

	c := r.Counter("slow")
	if c.Events != 2 || c.Ns < int64(4*time.Millisecond) {
		t.Fatalf("counter = %+v, want 2 events and >= 4ms", c)
	}
	if r.spans[inner].SinkNs <= 0 || r.spans[outer].SinkNs != c.Ns {
		t.Fatalf("sink ns: inner %d, outer %d, counter %d", r.spans[inner].SinkNs, r.spans[outer].SinkNs, c.Ns)
	}
	// Both sink calls are subtracted: one inside the child span, one as
	// the outer span's own sink time.
	if self := r.SelfTime(outer); self < 0 || self > time.Millisecond {
		t.Errorf("outer self time %v, want ~0 (all of it was sink work)", self)
	}
	if self := r.SelfTime(inner); self < 0 || self > time.Millisecond {
		t.Errorf("inner self time %v, want ~0", self)
	}
}

type stickySink struct{ err error }

func (s *stickySink) Observe(trace.Event) {}
func (s *stickySink) Err() error          { return s.err }

func TestTimedSinkKeepsStickyErrorVisible(t *testing.T) {
	r := NewRecorder()
	inner := &stickySink{}
	wrapped := r.Sink("store", inner)
	es, ok := wrapped.(trace.ErrSink)
	if !ok {
		t.Fatal("wrapper of an ErrSink must stay an ErrSink")
	}
	if _, ok := r.Sink("plain", trace.SinkFunc(func(trace.Event) {})).(trace.ErrSink); ok {
		t.Fatal("wrapper of an infallible sink must not become fallible")
	}
	m := trace.NewIsolatingMultiSink()
	m.Add("store", wrapped)
	inner.err = errTest
	m.Observe(trace.Event{})
	if es.Err() != errTest || m.Live() != 0 || len(m.Detached()) != 1 {
		t.Fatalf("sticky error not seen through the wrapper: live %d, detached %v", m.Live(), m.Detached())
	}
}

var errTest = errorString("disk full")

type errorString string

func (e errorString) Error() string { return string(e) }
