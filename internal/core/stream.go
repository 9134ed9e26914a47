package core

import (
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// ModelBuilder runs Algorithms 1 and 2 over an event stream: it consumes
// one event at a time (it is a trace.Sink) and Finish assembles the
// Model. It owns the package's one Algorithm-1 engine (snapEngine);
// ExtractModel, SynthesizeSink and SnapshotService are all shells around
// it.
//
// Events must arrive in (Time, Seq) order — exactly what the streaming
// drain (tracers.Bundle.StreamTo) delivers, including across successive
// periodic drains, since virtual time and the emission counter only
// grow. Observe checks the order at runtime: an event below the highest
// (Time, Seq) seen so far is counted in OutOfOrder, and a non-zero count
// means the model may differ from one over the sorted stream.
//
// The memory shape is what makes streaming worthwhile: no event is
// retained once observed. ROS middleware events step the engine at once
// (Algorithm 1's caller/client searches keep per-PID and per-request
// state, not the events they were computed from), and scheduler events —
// the bulk of any kernel-traced run — are folded into per-PID
// execution-time accumulators as they pass. The one exception is a PID
// that no P1 event has named yet: its events wait for a late P1's
// replay. Algorithm 2 runs online: a callback-start probe opens a window
// (running, since the probe fires on-CPU), switches charge or suspend
// the window as they stream by, and the callback-end probe closes it,
// handing its execution time to the engine along with the event.
// The (Time, Seq) bracketing the paper's strict window comparisons need
// in a simulator where events can share a timestamp falls out of stream
// order for free: a switch sharing the start timestamp but emitted
// earlier arrives before the start probe and is ignored; one sharing the
// end timestamp but emitted later arrives after the end probe, when the
// window is already closed.
type ModelBuilder struct {
	open  map[uint32]*etWindow
	sched uint64

	// lastTime/lastSeq is the highest (Time, Seq) observed; ooo counts
	// the events that arrived below it.
	lastTime sim.Time
	lastSeq  uint64
	ooo      uint64

	eng *snapEngine
}

// etWindow accumulates Algorithm 2 state for one open window.
type etWindow struct {
	last    sim.Time
	et      sim.Duration
	running bool
}

// NewModelBuilder returns an empty builder.
func NewModelBuilder() *ModelBuilder {
	return &ModelBuilder{
		open: make(map[uint32]*etWindow),
		eng:  newSnapEngine(),
	}
}

// Observe implements trace.Sink.
func (b *ModelBuilder) Observe(e trace.Event) {
	if e.Time < b.lastTime || (e.Time == b.lastTime && e.Seq < b.lastSeq) {
		b.ooo++
	} else {
		b.lastTime, b.lastSeq = e.Time, e.Seq
	}
	switch e.Kind {
	case trace.KindSchedSwitch:
		b.sched++
		b.observeSwitch(e)
	case trace.KindSchedWakeup:
		b.sched++ // wakeups carry no Algorithm 2 information
	default:
		var et sim.Duration
		switch {
		case e.Kind.IsCBStart():
			// The start probe fires on-CPU, so the window opens running.
			b.open[e.PID] = &etWindow{last: e.Time, running: true}
		case e.Kind.IsCBEnd():
			if w, ok := b.open[e.PID]; ok {
				et = w.et
				if w.running {
					et += e.Time.Sub(w.last)
				}
				delete(b.open, e.PID)
			}
		}
		b.eng.step(&e, et)
	}
}

// observeSwitch folds one sched_switch into the open windows: a switch
// whose previous thread owns a running window suspends it; one whose
// next thread owns a suspended window resumes it — and a switch whose
// prev and next are the same thread toggles that thread's window once,
// never suspending and resuming it in one step.
func (b *ModelBuilder) observeSwitch(e trace.Event) {
	if e.PrevPID == e.NextPID {
		if w, ok := b.open[e.PrevPID]; ok {
			if w.running {
				w.et += e.Time.Sub(w.last)
				w.running = false
			} else {
				w.last = e.Time
				w.running = true
			}
		}
		return
	}
	if w, ok := b.open[e.PrevPID]; ok && w.running {
		w.et += e.Time.Sub(w.last)
		w.running = false
	}
	if w, ok := b.open[e.NextPID]; ok && !w.running {
		w.last = e.Time
		w.running = true
	}
}

// BufferedROSEvents reports how many ROS events the builder holds for
// late-P1 replay: the events, from its first callback start on, of each
// PID no P1 event has named yet. Nothing else observed is retained.
func (b *ModelBuilder) BufferedROSEvents() int { return b.eng.held }

// PendingLookups reports how many FindClient lookups are still open: a
// response's dispatched client that later events may yet change.
func (b *ModelBuilder) PendingLookups() int { return len(b.eng.pending) }

// SchedEventsFolded reports how many scheduler events streamed through
// without being retained.
func (b *ModelBuilder) SchedEventsFolded() uint64 { return b.sched }

// OutOfOrder reports how many observed events arrived below the highest
// (Time, Seq) seen before them. It is zero for any stream the drain,
// the store readers or ExtractModel's sort produce.
func (b *ModelBuilder) OutOfOrder() uint64 { return b.ooo }

// Finish returns the model of everything observed so far. It does not
// consume the builder: more events may be observed and Finish called
// again, so a long-running tracer can re-synthesize periodically while
// the session continues.
func (b *ModelBuilder) Finish() *Model {
	m, _ := b.model()
	return m
}

// model re-resolves the pending client lookups and materializes the
// model together with its timer periods for buildDAG.
func (b *ModelBuilder) model() (*Model, map[*Callback]sim.Duration) {
	b.eng.resolvePending()
	return b.eng.materialize()
}

// DAG builds the precedence DAG from everything observed so far, with
// timer periods read off the engine's running medians.
func (b *ModelBuilder) DAG() *DAG { return buildDAG(b.model()) }

// SynthesizeSink is the streaming form of Synthesize: stream a session
// (or several segments) into it, then call DAG.
type SynthesizeSink = ModelBuilder

// NewSynthesizeSink returns an empty synthesis sink.
func NewSynthesizeSink() *SynthesizeSink { return NewModelBuilder() }
