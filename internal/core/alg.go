package core

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// Diagnostic records a non-fatal inconsistency observed while extracting
// callbacks (e.g. a truncated instance at the end of a trace segment).
type Diagnostic struct {
	PID  uint32
	Time sim.Time
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("pid %d @%v: %s", d.PID, d.Time, d.Msg)
}

// topicTS keys the caller/client search indexes: a topic plus a source
// timestamp.
type topicTS struct {
	topic string
	srcTS int64
}

// decorate concatenates a callback ID to a topic name, the paper's
// mechanism for keeping service chains of different callers apart.
func decorate(topic string, id uint64) string {
	return fmt.Sprintf("%s#%x", topic, id)
}

// Model is the result of running Algorithm 1 over every node in a trace.
type Model struct {
	// Callbacks of all nodes, in (PID, first-instance) order.
	Callbacks []*Callback
	// NodeOf maps PID to node name (from P1 events).
	NodeOf map[uint32]string
	// Diags aggregates extraction diagnostics.
	Diags []Diagnostic
}

// ExtractModel runs Algorithm 1 for every ROS2 node found in the trace
// (via P1 events; PIDs with ROS events but no P1 record — e.g. bare DDS
// replayers — are not modeled, matching the paper's deployment where only
// initialized ROS2 nodes are synthesized). It is the batch wrapper over
// ModelBuilder: the trace streams through one builder, then Finish. A
// trace the builder finds out of (Time, Seq) order streams again from a
// sorted clone.
func ExtractModel(tr *trace.Trace) *Model {
	b := observeAll(tr.Events)
	if b.OutOfOrder() > 0 {
		sorted := tr.Clone()
		sorted.SortByTime()
		b = observeAll(sorted.Events)
	}
	return b.Finish()
}

// observeAll streams evs through a fresh builder.
func observeAll(evs []trace.Event) *ModelBuilder {
	b := NewModelBuilder()
	for _, e := range evs {
		b.Observe(e)
	}
	return b
}
