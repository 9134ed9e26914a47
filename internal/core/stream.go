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
// The memory shape is what makes streaming worthwhile: ROS middleware
// events are buffered (Algorithm 1's caller/client searches cross node
// boundaries in both directions, so the model needs them all), but
// scheduler events — the bulk of any kernel-traced run — are folded into
// per-PID execution-time accumulators as they pass and never retained.
// Algorithm 2 runs online: a callback-start probe opens a window
// (running, since the probe fires on-CPU), switches charge or suspend
// the window as they stream by, and the callback-end probe closes it.
// The (Time, Seq) bracketing the paper's strict window comparisons need
// in a simulator where events can share a timestamp falls out of stream
// order for free: a switch sharing the start timestamp but emitted
// earlier arrives before the start probe and is ignored; one sharing the
// end timestamp but emitted later arrives after the end probe, when the
// window is already closed.
type ModelBuilder struct {
	ros   []trace.Event
	open  map[uint32]*etWindow
	sched uint64

	// etLog holds the windows closed since the last fold, in close order.
	// take hands it to the engine and starts a fresh slice, so the builder
	// never holds more than one fold's worth of closed windows.
	etLog []etEntry

	// lastTime/lastSeq is the highest (Time, Seq) observed; ooo counts
	// the events that arrived below it.
	lastTime sim.Time
	lastSeq  uint64
	ooo      uint64

	eng *snapEngine
}

// etEntry is one closed callback-instance window: its identity and the
// accumulated execution time.
type etEntry struct {
	key etKey
	et  sim.Duration
}

// etKey identifies one callback-instance window: the executor PID plus
// the emission sequence number of its start probe (globally unique).
type etKey struct {
	pid      uint32
	startSeq uint64
}

// etWindow accumulates Algorithm 2 state for one open window.
type etWindow struct {
	startSeq uint64
	last     sim.Time
	et       sim.Duration
	running  bool
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
		b.ros = append(b.ros, e)
		switch {
		case e.Kind.IsCBStart():
			// The start probe fires on-CPU, so the window opens running.
			b.open[e.PID] = &etWindow{startSeq: e.Seq, last: e.Time, running: true}
		case e.Kind.IsCBEnd():
			if w, ok := b.open[e.PID]; ok {
				et := w.et
				if w.running {
					et += e.Time.Sub(w.last)
				}
				b.etLog = append(b.etLog, etEntry{etKey{e.PID, w.startSeq}, et})
				delete(b.open, e.PID)
			}
		}
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

// BufferedROSEvents reports how many ROS events the builder holds — the
// streaming pipeline's entire retained state besides O(open windows).
func (b *ModelBuilder) BufferedROSEvents() int { return len(b.ros) }

// SchedEventsFolded reports how many scheduler events streamed through
// without being retained.
func (b *ModelBuilder) SchedEventsFolded() uint64 { return b.sched }

// OutOfOrder reports how many observed events arrived below the highest
// (Time, Seq) seen before them. It is zero for any stream the drain,
// the store readers or ExtractModel's sort produce.
func (b *ModelBuilder) OutOfOrder() uint64 { return b.ooo }

// Finish folds everything observed since the previous call into the
// engine and returns the model. It does not consume the builder: more
// events may be observed and Finish called again, so a long-running
// tracer can re-synthesize periodically while the session continues, at
// a cost proportional to the events observed in between.
func (b *ModelBuilder) Finish() *Model {
	m, _ := b.fold(b.take())
	return m
}

// take captures the engine's next delta: the ROS buffer (append-only, so
// the captured prefix stays immutable while observation continues) and
// the windows closed since the previous take.
func (b *ModelBuilder) take() ([]trace.Event, []etEntry) {
	ros, etLog := b.ros, b.etLog
	b.etLog = nil
	return ros, etLog
}

// fold advances the engine over a captured delta, re-resolves the
// pending client lookups, and materializes the model together with the
// engine's timer-period estimator for buildDAG. It touches only the
// engine, never the observation state, so SnapshotService runs it
// outside its observation lock.
func (b *ModelBuilder) fold(ros []trace.Event, etLog []etEntry) (*Model, func(*Callback) sim.Duration) {
	b.eng.fold(ros, etLog)
	b.eng.resolvePending()
	return b.eng.materialize()
}

// DAG builds the precedence DAG from everything observed so far, with
// timer periods read off the engine's running medians.
func (b *ModelBuilder) DAG() *DAG { return buildDAG(b.fold(b.take())) }

// SynthesizeSink is the streaming form of Synthesize: stream a session
// (or several segments) into it, then call DAG.
type SynthesizeSink = ModelBuilder

// NewSynthesizeSink returns an empty synthesis sink.
func NewSynthesizeSink() *SynthesizeSink { return NewModelBuilder() }
