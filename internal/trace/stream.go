package trace

import "github.com/tracesynth/rostracer/internal/sim"

// Streaming counterpart of the batch Trace pipeline: a Sink consumes
// events one at a time in (Time, Seq) order, a Cursor produces them, and
// MergeStream k-way merges many sorted cursors into a sink with a
// tournament heap — the same algorithm (and the same tie-breaking) as the
// >4-way path of Merge, but without ever materializing the merged event
// sequence. Peak buffering is one event per input stream: the heap holds
// only the current head of each cursor.

// Sink consumes a stream of events. Producers deliver events in
// (Time, Seq) order, the chronological order Algorithm 1 requires, so a
// sink never has to sort.
type Sink interface {
	Observe(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Observe implements Sink.
func (f SinkFunc) Observe(e Event) { f(e) }

// Collector is a Sink that materializes the observed stream into a
// Trace — the bridge from the streaming path back to the batch API.
type Collector struct {
	Trace Trace
}

// Observe implements Sink.
func (c *Collector) Observe(e Event) { c.Trace.Events = append(c.Trace.Events, e) }

// Grow pre-allocates room for n more events.
func (c *Collector) Grow(n int) {
	if n <= 0 {
		return
	}
	evs := c.Trace.Events
	if cap(evs)-len(evs) >= n {
		return
	}
	grown := make([]Event, len(evs), len(evs)+n)
	copy(grown, evs)
	c.Trace.Events = grown
}

// KindCounter is a Sink that tallies events per kind without retaining
// them — enough for inventory-style experiments (Table I) and event
// totals.
type KindCounter struct {
	counts [numKinds]uint64
	total  uint64
}

// Observe implements Sink.
func (k *KindCounter) Observe(e Event) {
	if e.Kind < numKinds {
		k.counts[e.Kind]++
	}
	k.total++
}

// Count reports how many events of kind have been observed.
func (k *KindCounter) Count(kind Kind) int {
	if kind >= numKinds {
		return 0
	}
	return int(k.counts[kind])
}

// Total reports the number of events observed.
func (k *KindCounter) Total() int { return int(k.total) }

// SpanTracker is a Sink recording the observed stream's first/last event
// times and its event count without retaining events — the streaming
// replacement for materializing a trace just to call TimeSpan and Len.
type SpanTracker struct {
	first, last sim.Time
	n           int
}

// Observe implements Sink.
func (t *SpanTracker) Observe(e Event) {
	if t.n == 0 {
		t.first, t.last = e.Time, e.Time
	} else {
		if e.Time < t.first {
			t.first = e.Time
		}
		if e.Time > t.last {
			t.last = e.Time
		}
	}
	t.n++
}

// Span reports the first and last observed event times (zero values when
// nothing was observed), mirroring Trace.TimeSpan.
func (t *SpanTracker) Span() (first, last sim.Time) { return t.first, t.last }

// Total reports the number of events observed.
func (t *SpanTracker) Total() int { return t.n }

// MultiSink fans one stream out to several sinks, in order.
func MultiSink(sinks ...Sink) Sink {
	// Drop nil entries so callers can pass optional sinks directly.
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return SinkFunc(func(e Event) {
		for _, s := range live {
			s.Observe(e)
		}
	})
}

// Cursor yields the events of one (Time, Seq)-sorted stream, one at a
// time. Next reports ok=false when the stream is exhausted; a non-nil
// error (e.g. a record that fails to decode) also ends the stream.
type Cursor interface {
	Next() (ev Event, ok bool, err error)
}

// SliceCursor adapts a sorted event slice to the Cursor interface.
type SliceCursor struct {
	Events []Event
	i      int
}

// Next implements Cursor.
func (c *SliceCursor) Next() (Event, bool, error) {
	if c.i >= len(c.Events) {
		return Event{}, false, nil
	}
	e := c.Events[c.i]
	c.i++
	return e, true, nil
}

// MergeStream merges many (Time, Seq)-sorted cursors into one stream
// with a tournament heap, generalizing the many-stream path of Merge to
// producers that yield events incrementally (per-CPU perf rings decoded
// on the fly, loaded trace segments, ...). Ties on (Time, Seq) resolve
// to the earlier cursor, exactly as Merge resolves them to the earlier
// input trace, so a MergeStream over SliceCursors reproduces Merge byte
// for byte.
type MergeStream struct {
	curs  []Cursor
	heads []Event // current head event per cursor
	heap  []int   // cursor indexes, min-heap by (head Time, Seq, index)
	// adm, when set, opens cursors lazily (session reads): its slots of
	// curs start nil and fill as the merge reaches each segment's bound.
	adm *admission
}

// NewMergeStream creates a merge over cursors. Nil cursors are skipped.
func NewMergeStream(curs ...Cursor) *MergeStream {
	return new(MergeStream).Reset(curs...)
}

// Reset re-targets the merge at a new cursor set, reusing the cursor,
// head, and heap storage of earlier runs: a drain loop that keeps one
// MergeStream and Resets it per segment allocates nothing at steady
// state. Nil cursors are skipped. Returns m for chaining into Run.
func (m *MergeStream) Reset(curs ...Cursor) *MergeStream {
	m.adm = nil
	m.curs = m.curs[:0]
	for _, c := range curs {
		if c != nil {
			m.curs = append(m.curs, c)
		}
	}
	return m
}

// Buffered reports how many events the merge currently holds — at most
// one per input stream, the bound that keeps the streaming path's memory
// independent of trace length.
func (m *MergeStream) Buffered() int { return len(m.heap) }

func (m *MergeStream) less(a, b int) bool {
	ea, eb := &m.heads[a], &m.heads[b]
	if ea.Time != eb.Time {
		return ea.Time < eb.Time
	}
	if ea.Seq != eb.Seq {
		return ea.Seq < eb.Seq
	}
	return a < b
}

func (m *MergeStream) siftDown(i int) {
	h := m.heap
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && m.less(h[l], h[min]) {
			min = l
		}
		if r < len(h) && m.less(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// push adds cursor i with head ev to the heap.
func (m *MergeStream) push(i int, ev Event) {
	m.heads[i] = ev
	m.heap = append(m.heap, i)
	h := m.heap
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !m.less(h[j], h[p]) {
			return
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

// prime pulls the first event of every cursor and builds the heap.
func (m *MergeStream) prime() error {
	if cap(m.heads) < len(m.curs) {
		m.heads = make([]Event, len(m.curs))
		m.heap = make([]int, 0, len(m.curs))
	} else {
		m.heads = m.heads[:len(m.curs)]
		m.heap = m.heap[:0]
	}
	for i, c := range m.curs {
		if c == nil {
			continue // a lazily admitted slot
		}
		ev, ok, err := c.Next()
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		m.heads[i] = ev
		m.heap = append(m.heap, i)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return nil
}

// Run drains every cursor into sink in merged (Time, Seq) order. It
// returns the first cursor error, leaving the merge unusable.
func (m *MergeStream) Run(sink Sink) error {
	if err := m.prime(); err != nil {
		return err
	}
	for {
		if m.adm != nil {
			if err := m.adm.admit(m); err != nil {
				return err
			}
		}
		if len(m.heap) == 0 {
			return nil
		}
		t := m.heap[0]
		sink.Observe(m.heads[t])
		ev, ok, err := m.curs[t].Next()
		if err != nil {
			return err
		}
		if ok {
			m.heads[t] = ev
		} else {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
			if m.adm != nil {
				m.curs[t] = nil
				m.adm.release(t)
			}
		}
		m.siftDown(0)
	}
}
