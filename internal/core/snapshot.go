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
// Synthesis is incremental: every observed event steps the builder's
// engine at once, keeping persistent model and DAG delta state
// (extraction machines, search state, per-callback accumulators), so
// Snapshot cost is proportional to the model, not to session length.
// Observe holds mu for one event; Snapshot holds it just long enough to
// re-resolve the pending client lookups and materialize the model, then
// builds the DAG while observation continues.
type SnapshotService struct {
	mu  sync.Mutex // guards everything below
	b   *ModelBuilder
	obs uint64 // total events observed, ROS + sched
	seq int
}

// Snapshot is one point-in-time synthesis of the stream so far. Counters
// are cumulative, so across successive snapshots every one of them is
// non-decreasing — the monotonicity the race test asserts — except the
// two gauges of retained state.
type Snapshot struct {
	Seq            int    // 1-based snapshot number
	Events         uint64 // events observed when the snapshot was taken
	FoldedSched    uint64 // sched events folded online (never retained)
	BufferedROS    int    // ROS events held for late-P1 replay (gauge)
	PendingLookups int    // client lookups still open (gauge)
	OutOfOrder     uint64 // events that arrived below the (Time, Seq) order
	Model          *Model
	DAG            *DAG
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

// Retained reports the synthesis state that is not model: ROS events
// held for late-P1 replay and client lookups still open.
func (s *SnapshotService) Retained() (events, lookups int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.BufferedROSEvents(), s.b.PendingLookups()
}

// Snapshot synthesizes the model and DAG from everything observed so
// far. Observation is blocked only while the model is materialized.
func (s *SnapshotService) Snapshot() Snapshot {
	s.mu.Lock()
	s.seq++
	m, periods := s.b.model()
	snap := Snapshot{
		Seq:            s.seq,
		Events:         s.obs,
		FoldedSched:    s.b.sched,
		BufferedROS:    s.b.BufferedROSEvents(),
		PendingLookups: s.b.PendingLookups(),
		OutOfOrder:     s.b.ooo,
		Model:          m,
	}
	s.mu.Unlock()
	snap.DAG = buildDAG(m, periods)
	return snap
}
