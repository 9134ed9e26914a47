package main

import (
	"cmp"
	"slices"
	"time"

	"github.com/tracesynth/rostracer/internal/trace"
)

// Span is one timed call into a layer's public function. Times are
// nanoseconds since the recorder started; Parent indexes the enclosing
// span (-1 at the top). SinkNs is the per-event sink time the sink
// counters accumulated while the span was open, children included.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	SinkNs int64  `json:"sink_ns,omitempty"`
}

// Counter sums the time and events one sink spent in Observe. Per-event
// work is too fine-grained for spans, so it is counted at the same
// boundary instead.
type Counter struct {
	Ns     int64 `json:"ns"`
	Events int64 `json:"events"`
}

// Recorder keeps every span and sink counter of a run in memory; Write
// saves them once the run is over. It is not safe for concurrent use:
// the driver is single-threaded, as rostracer's drive loop is.
type Recorder struct {
	epoch    time.Time
	spans    []Span
	open     []int
	sinkOpen []int64 // sinkNs at each open span's Begin
	counters map[string]*Counter
	sinkNs   int64
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), counters: map[string]*Counter{}}
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Begin opens a span under the innermost open one and returns its index.
func (r *Recorder) Begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, Span{Name: name, Start: r.now(), Parent: parent})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	r.sinkOpen = append(r.sinkOpen, r.sinkNs)
	return i
}

// End closes span i, which must be the innermost open span.
func (r *Recorder) End(i int) {
	top := len(r.open) - 1
	if top < 0 || r.open[top] != i {
		panic("tracedrv: spans closed out of order")
	}
	r.spans[i].End = r.now()
	r.spans[i].SinkNs = r.sinkNs - r.sinkOpen[top]
	r.open, r.sinkOpen = r.open[:top], r.sinkOpen[:top]
}

// Time runs f inside a span and returns the span's index.
func (r *Recorder) Time(name string, f func()) int {
	i := r.Begin(name)
	f()
	r.End(i)
	return i
}

// Sink wraps s so that its Observe time and event count accumulate in
// the counter called name. A sticky error of s stays visible to an
// IsolatingMultiSink through Err, so isolation behaves as without the
// wrapper.
func (r *Recorder) Sink(name string, s trace.Sink) trace.Sink {
	c := r.Counter(name)
	if es, ok := s.(trace.ErrSink); ok {
		return &timedErrSink{timedSink{r, c, s}, es}
	}
	return &timedSink{r, c, s}
}

// Counter returns the named sink counter, creating it on first use.
func (r *Recorder) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

type timedSink struct {
	r *Recorder
	c *Counter
	s trace.Sink
}

func (t *timedSink) Observe(e trace.Event) {
	start := time.Now()
	t.s.Observe(e)
	d := int64(time.Since(start))
	t.c.Ns += d
	t.c.Events++
	t.r.sinkNs += d
}

type timedErrSink struct {
	timedSink
	es trace.ErrSink
}

func (t *timedErrSink) Err() error { return t.es.Err() }

// Duration is span i's wall time.
func (r *Recorder) Duration(i int) time.Duration {
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

// SelfTime is span i's duration minus the part of it its child spans
// cover and minus the sink time counted inside it outside those
// children: the time the layer itself spent.
func (r *Recorder) SelfTime(i int) time.Duration {
	return time.Duration(selfTime(r.spans, i))
}

func selfTime(spans []Span, i int) int64 {
	p := spans[i]
	var ivs [][2]int64
	sinkInChildren := int64(0)
	for _, c := range spans[i+1:] {
		if c.Parent != i {
			continue
		}
		ivs = append(ivs, [2]int64{max(c.Start, p.Start), min(c.End, p.End)})
		sinkInChildren += c.SinkNs
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, reach := int64(0), p.Start
	for _, iv := range ivs {
		lo := max(iv[0], reach)
		if iv[1] > lo {
			covered += iv[1] - lo
			reach = iv[1]
		}
	}
	return p.End - p.Start - covered - (p.SinkNs - sinkInChildren)
}

// Named returns the indexes of the spans called name, in start order.
func (r *Recorder) Named(name string) []int {
	var out []int
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// SumDuration totals the durations of the spans called name.
func (r *Recorder) SumDuration(name string) time.Duration {
	var d time.Duration
	for _, i := range r.Named(name) {
		d += r.Duration(i)
	}
	return d
}

// SumSelf totals the self times of the spans called name.
func (r *Recorder) SumSelf(name string) time.Duration {
	var d time.Duration
	for _, i := range r.Named(name) {
		d += r.SelfTime(i)
	}
	return d
}
