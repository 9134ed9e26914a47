package core

import (
	"sync"

	"github.com/tracesynth/rostracer/internal/trace"
)

// SnapshotService puts a live synthesis loop on top of ModelBuilder: a
// long-running tracer streams drained events in (concurrently, batch by
// batch) while periodic Snapshot calls hand out the current model and
// DAG.
//
// Synthesis is incremental: the builder's engine folds only the events
// observed since the previous snapshot into persistent model and DAG
// delta state (extraction machines, search index, per-callback
// accumulators), so Snapshot cost is proportional to the delta, not to
// session length. The fold also runs off the observation lock — Observe
// holds mu for one event fold; Snapshot holds it just long enough to
// capture the builder's delta, then folds, materializes and builds the
// DAG under its own serialization lock while observation continues.
type SnapshotService struct {
	mu  sync.Mutex // guards obs and b's observation state
	b   *ModelBuilder
	obs uint64 // total events observed, ROS + sched

	synthMu sync.Mutex // serializes snapshots; guards seq and b's engine
	seq     int
}

// Snapshot is one point-in-time synthesis of the stream so far. Counters
// are cumulative, so across successive snapshots every one of them is
// non-decreasing — the monotonicity the race test asserts.
type Snapshot struct {
	Seq         int    // 1-based snapshot number
	Events      uint64 // events observed when the snapshot was taken
	FoldedSched uint64 // sched events folded online (never retained)
	BufferedROS int    // ROS events the builder holds
	OutOfOrder  uint64 // events that arrived below the (Time, Seq) order
	Model       *Model
	DAG         *DAG
}

// NewSnapshotService returns a service over an empty builder.
func NewSnapshotService() *SnapshotService {
	return &SnapshotService{b: NewModelBuilder()}
}

// Observe implements trace.Sink. Safe for concurrent use; events must
// still arrive in (Time, Seq) order overall, so concurrent producers
// must partition the stream the way the drain loop does (whole drained
// segments, one producer at a time per segment).
func (s *SnapshotService) Observe(e trace.Event) {
	s.mu.Lock()
	s.b.Observe(e)
	s.obs++
	s.mu.Unlock()
}

// ObserveBatch folds a whole drained batch under one lock acquisition,
// for producers that already hold events in batches. (The rostracer
// drain loop streams per-event through Observe instead — its segments
// are never materialized, and one uncontended lock per event is noise
// next to record decode.)
func (s *SnapshotService) ObserveBatch(evs []trace.Event) {
	s.mu.Lock()
	for _, e := range evs {
		s.b.Observe(e)
	}
	s.obs += uint64(len(evs))
	s.mu.Unlock()
}

// EventsObserved reports how many events the service has folded so far.
func (s *SnapshotService) EventsObserved() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// Snapshot synthesizes the model and DAG from everything observed so
// far, folding only the delta since the previous snapshot. Observation
// is blocked only for the delta capture.
func (s *SnapshotService) Snapshot() Snapshot {
	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	s.seq++

	s.mu.Lock()
	ros, etLog := s.b.take()
	obs, sched, ooo := s.obs, s.b.sched, s.b.ooo
	s.mu.Unlock()

	m, periodOf := s.b.fold(ros, etLog)
	return Snapshot{
		Seq:         s.seq,
		Events:      obs,
		FoldedSched: sched,
		BufferedROS: len(ros),
		OutOfOrder:  ooo,
		Model:       m,
		DAG:         buildDAG(m, periodOf),
	}
}
