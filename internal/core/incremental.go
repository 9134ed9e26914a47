package core

import (
	"fmt"
	"sort"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// snapEngine is the Algorithm 1 engine behind every ModelBuilder: it
// steps once per ROS event, keeping the per-PID extraction state
// machines, the caller/client search state, and per-callback
// accumulators alive between snapshots, so a periodic snapshot costs in
// proportion to the model, not to session length. No event is kept
// once stepped, except a PID's events awaiting its P1 (see pidState).
//
// A model materialized after any prefix of a stream is the one a batch
// extraction over exactly that prefix would yield (the batch test oracle
// pins this). That rests on which Algorithm 1 lookups are stable under
// stream growth:
//
//   - FindCaller is stable: a request's dds_write precedes its
//     take_request in (Time, Seq) order (the write causes the take), and
//     its answer — the writer's last ID-bearing event since its last
//     callback start — is fixed when the write is seen, so it is
//     captured then, for the first write of each request.
//   - FindClient is NOT stable: the take_response and
//     take_type_erased_response events that identify the dispatched
//     client follow the response's dds_write in time, so the answer for
//     an already-extracted write can change as the stream grows — from
//     "no client" (decoration #0 plus a diagnostic) to the real client
//     ID. Such lookups stay pending: every snapshot re-resolves them,
//     updating the owning callback's decorated out-topic set and
//     suppressing the diagnostic once a client appears, until the
//     answer is provably final (a dispatched client found with every
//     earlier take definitively skipped).
//
// All other attributes fold forward: merged callbacks accumulate stats,
// instances, and refcounted out-topics; timer periods keep an exact
// two-heap running median over inter-start gaps, matching
// Callback.EstimatePeriod's upper-median element for any length.
type snapEngine struct {
	pids map[uint32]*pidState

	// callerOf maps (request topic, srcTS) to FindCaller's answer for
	// the first dds_write of that request; clients maps (response topic,
	// srcTS) to FindClient's state. Both keep one entry per key.
	callerOf map[topicTS]uint64
	clients  map[topicTS]*clientLookup

	nodeOf  map[uint32]string
	pending []*pendingClient
	held    int // events held for late-P1 replay, over all PIDs
}

// pidState is one PID's search and extraction state. Every PID has
// one, named by a P1 event or not, since the caller/client searches
// cross into PIDs Algorithm 1 does not model.
type pidState struct {
	// lastID is what FindCaller's backward walk from a write of this PID
	// would return: the CBID of the last timer call or take since the
	// last callback start, 0 if there is none.
	lastID uint64
	// awaiting holds the PID's take_response records whose next
	// take_type_erased_response has not been seen yet.
	awaiting []*takeRec
	// mach is nil until a P1 event names the PID: Algorithm 1 models
	// initialized nodes only. Until then replay holds the PID's events
	// from its first callback start on (earlier ones step no machine
	// state), so a late-named PID replays what stepping them in stream
	// order would have produced.
	mach   *pidMachine
	replay []heldEvent
}

// heldEvent is an event awaiting replay, with its window's execution
// time if it is a callback end.
type heldEvent struct {
	e  trace.Event
	et sim.Duration
}

// clientLookup is FindClient's state for one (response topic, srcTS):
// the matching take_response records in stream order, of which a
// leading run of definitively skipped ones is dropped, until a
// dispatched client is final and the records collapse to its ID.
type clientLookup struct {
	takes []*takeRec
	id    uint64
	final bool
}

// takeRec is one take_response of a client lookup: the taking
// callback's ID and, once the taking PID's next
// take_type_erased_response is seen, whether it dispatched.
type takeRec struct {
	cbid             uint64
	seen, dispatched bool
	l                *clientLookup
}

// compact drops the lookup's leading definitively skipped takes; a
// leading dispatched take makes the answer final.
func (l *clientLookup) compact() {
	i := 0
	for i < len(l.takes) && l.takes[i].seen && !l.takes[i].dispatched {
		i++
	}
	if i < len(l.takes) && l.takes[i].seen {
		l.id, l.final, l.takes = l.takes[i].cbid, true, nil
		return
	}
	n := copy(l.takes, l.takes[i:])
	clear(l.takes[n:])
	l.takes = l.takes[:n]
}

// answer is FindClient over the stream so far: the first take that
// dispatched, final only when every earlier take was definitively
// skipped (compaction leaves no such take in front of it).
func (l *clientLookup) answer() (id uint64, final bool) {
	if l.final {
		return l.id, true
	}
	for _, t := range l.takes {
		if t.dispatched {
			return t.cbid, false
		}
	}
	return 0, false
}

func newSnapEngine() *snapEngine {
	return &snapEngine{
		pids:     make(map[uint32]*pidState),
		callerOf: make(map[topicTS]uint64),
		clients:  make(map[topicTS]*clientLookup),
		nodeOf:   make(map[uint32]string),
	}
}

// pidMachine is one PID's Algorithm 1 traversal, suspended between
// folds: the merged callback list, the diagnostics (some conditional on
// a pending client resolution), and the currently open instance.
type pidMachine struct {
	pid   uint32
	list  []*cbEntry
	diags []diagSlot
	cur   *curState
}

// diagSlot is one diagnostic position in a PID's extraction output. A
// slot tied to a pending client lookup is visible only while that
// lookup resolves to "no client", exactly when an extraction over the
// stream so far would emit it; most such lookups resolve, so its text is
// formatted from the lookup's topic and srcTS only once a model shows
// it, and the slot is dropped once its client is final.
type diagSlot struct {
	d    Diagnostic
	pend *pendingClient
}

// curState is the instance currently open on a PID (CB.* in the
// paper).
type curState struct {
	cb    Callback // ID, Type, InTopic, IsSync accumulate here
	outs  []outContrib
	start sim.Time
	inst  Instance
}

// outContrib is one dds_write's contribution to a callback's decorated
// out-topic set: a fixed string, or a pending client lookup whose
// decoration can still change.
type outContrib struct {
	fixed string
	pend  *pendingClient
}

// cbEntry is one merged CBlist entry plus its incremental accumulators.
type cbEntry struct {
	cb Callback // canonical accumulator; OutTopics unused (see outRefs)

	// outRefs refcounts decorated out-topic strings. Pending client
	// re-resolution moves a contribution from one string to another, so
	// presence (count > 0), not membership, defines the set.
	outRefs   map[string]int
	outsCache []string
	outsDirty bool

	med medianTracker // inter-start gaps, for timer period estimates
}

func (e *cbEntry) addInstance(inst Instance) {
	if n := len(e.cb.Instances); n > 0 {
		e.med.push(inst.Start.Sub(e.cb.Instances[n-1].Start))
	}
	e.cb.Stats.Add(inst.ET)
	e.cb.Instances = append(e.cb.Instances, inst)
}

func (e *cbEntry) addOut(c outContrib) {
	s := c.fixed
	if c.pend != nil {
		c.pend.owner = e
		s = c.pend.curOut
	}
	if s == "" {
		return
	}
	e.outRefs[s]++
	e.outsDirty = true
}

// outs returns the current decorated out-topic set, sorted. The cache
// is rebuilt into a fresh allocation whenever the set changed, so
// slices handed to earlier snapshots are never mutated.
func (e *cbEntry) outs() []string {
	if e.outsDirty {
		out := make([]string, 0, len(e.outRefs))
		for s, n := range e.outRefs {
			if n > 0 {
				out = append(out, s)
			}
		}
		sort.Strings(out)
		e.outsCache = out
		e.outsDirty = false
	}
	return e.outsCache[:len(e.outsCache):len(e.outsCache)]
}

// period is the entry's timer-period estimate: the same upper-median
// inter-start gap EstimatePeriod computes by sorting, read off the
// running median in O(1).
func (e *cbEntry) period() sim.Duration {
	if len(e.cb.Instances) < 2 {
		return 0
	}
	return e.med.upperMedian()
}

// snapshotCallback materializes the entry as a fresh Callback whose
// slices are shared full-capacity-clamped: the engine keeps appending
// to its own backing arrays (in place, beyond the snapshot's length)
// while every handed-out snapshot stays fixed.
func (e *cbEntry) snapshotCallback(node string) *Callback {
	cb := e.cb
	cb.Node = node
	cb.Stats.Samples = clampDurations(cb.Stats.Samples)
	cb.Instances = clampInstances(cb.Instances)
	cb.OutTopics = e.outs()
	return &cb
}

// pendingClient is one unresolved FindClient lookup, created at a
// response dds_write and re-resolved at every snapshot until final.
type pendingClient struct {
	topic  string // response topic (the write's topic, also the lookup key)
	srcTS  int64
	l      *clientLookup
	owner  *cbEntry // merged entry holding the out-topic contribution; nil while the instance is open or discarded
	curOut string   // decorated string currently in owner's refcounts
	id     uint64
	final  bool
}

// resolve re-reads the lookup's answer, moving the owner's out-topic
// contribution when the client changed.
func (p *pendingClient) resolve() {
	id, final := p.l.answer()
	p.final = final
	if id == p.id {
		return
	}
	old := p.curOut
	p.id = id
	p.curOut = decorate(p.topic, id)
	if o := p.owner; o != nil {
		o.outRefs[old]--
		if o.outRefs[old] <= 0 {
			delete(o.outRefs, old)
		}
		o.outRefs[p.curOut]++
		o.outsDirty = true
	}
}

// step advances the engine over one ROS event: the search state of the
// event's PID first, then its extraction machine, or its replay buffer
// while no P1 has named it. et is the execution time of the window a
// callback-end event closes, from the builder's online Algorithm 2.
func (g *snapEngine) step(e *trace.Event, et sim.Duration) {
	ps := g.pids[e.PID]
	if ps == nil {
		ps = &pidState{}
		g.pids[e.PID] = ps
	}
	switch {
	case e.Kind.IsCBStart():
		ps.lastID = 0
	case e.Kind == trace.KindTimerCall || e.Kind.IsTake():
		ps.lastID = e.CBID
	}
	switch e.Kind {
	case trace.KindDDSWrite:
		// FindCaller looks up request writes only; recording the
		// plain-topic bulk would cost a map entry per message.
		if dds.IsRequestTopic(e.Topic) {
			k := topicTS{e.Topic, e.SrcTS}
			if _, ok := g.callerOf[k]; !ok {
				g.callerOf[k] = ps.lastID
			}
		}
	case trace.KindTakeResponse:
		if l := g.client(dds.ServiceResponseTopic(e.Topic), e.SrcTS); !l.final {
			r := &takeRec{cbid: e.CBID, l: l}
			l.takes = append(l.takes, r)
			ps.awaiting = append(ps.awaiting, r)
		}
	case trace.KindTakeTypeErased:
		for _, r := range ps.awaiting {
			r.seen, r.dispatched = true, e.Ret == 1
			r.l.compact()
		}
		clear(ps.awaiting)
		ps.awaiting = ps.awaiting[:0]
	case trace.KindCreateNode:
		g.nodeOf[e.PID] = e.Node
		if ps.mach == nil {
			ps.mach = &pidMachine{pid: e.PID}
			for i := range ps.replay {
				ps.mach.step(g, &ps.replay[i].e, ps.replay[i].et)
			}
			g.held -= len(ps.replay)
			ps.replay = nil
		}
	}
	switch {
	case ps.mach != nil:
		ps.mach.step(g, e, et)
	case ps.replay != nil || e.Kind.IsCBStart():
		ps.replay = append(ps.replay, heldEvent{*e, et})
		g.held++
	}
}

// client returns the FindClient state for (topic, srcTS), creating it.
func (g *snapEngine) client(topic string, srcTS int64) *clientLookup {
	k := topicTS{topic, srcTS}
	l := g.clients[k]
	if l == nil {
		l = &clientLookup{}
		g.clients[k] = l
	}
	return l
}

// resolvePending re-resolves every open client lookup and drops the
// ones that became final.
func (g *snapEngine) resolvePending() {
	old := g.pending
	live := old[:0]
	for _, p := range old {
		p.resolve()
		if !p.final {
			live = append(live, p)
		}
	}
	clear(old[len(live):]) // release finalized lookups
	g.pending = live
}

// step folds one ROS event into the PID's extraction machine — one
// iteration of Algorithm 1's traversal. Out-topic decoration for
// responses goes through a pendingClient, and et is the execution time
// the builder's online Algorithm 2 measured for a callback end's window.
func (m *pidMachine) step(g *snapEngine, e *trace.Event, et sim.Duration) {
	switch {
	case e.Kind.IsCBStart(): // P2 / P5 / P9 / P12
		if m.cur != nil {
			m.diags = append(m.diags, diagSlot{d: Diagnostic{m.pid, e.Time,
				fmt.Sprintf("callback start %v while instance from %v still open", e.Kind, m.cur.start)}})
		}
		cur := &curState{start: e.Time}
		cur.cb = Callback{PID: m.pid}
		switch e.Kind {
		case trace.KindTimerCBStart:
			cur.cb.Type = CBTimer
		case trace.KindSubCBStart:
			cur.cb.Type = CBSubscriber
		case trace.KindServiceCBStart:
			cur.cb.Type = CBService
		case trace.KindClientCBStart:
			cur.cb.Type = CBClient
		}
		m.cur = cur

	case e.Kind == trace.KindTimerCall && m.cur != nil: // P3
		m.cur.cb.ID = e.CBID

	case e.Kind.IsTake() && m.cur != nil: // P6 / P10 / P13
		cur := m.cur
		cur.cb.ID = e.CBID
		cur.inst.TakeSrcTS = e.SrcTS
		switch e.Kind {
		case trace.KindTakeResponse:
			respTopic := dds.ServiceResponseTopic(e.Topic)
			cur.cb.InTopic = decorate(respTopic, cur.cb.ID)
			cur.inst.TakeTopic = respTopic
		case trace.KindTakeRequest:
			reqTopic := dds.ServiceRequestTopic(e.Topic)
			caller := g.callerOf[topicTS{reqTopic, e.SrcTS}]
			if caller == 0 {
				m.diags = append(m.diags, diagSlot{d: Diagnostic{m.pid, e.Time,
					fmt.Sprintf("no caller found for request on %s srcTS=%d", reqTopic, e.SrcTS)}})
			}
			cur.cb.InTopic = decorate(reqTopic, caller)
			cur.inst.TakeTopic = reqTopic
		default:
			cur.cb.InTopic = e.Topic
			cur.inst.TakeTopic = e.Topic
		}

	case e.Kind == trace.KindDDSWrite && m.cur != nil: // P16
		topic := e.Topic
		var contrib outContrib
		switch {
		case dds.IsRequestTopic(topic):
			contrib.fixed = decorate(topic, m.cur.cb.ID)
		case dds.IsResponseTopic(topic):
			p := &pendingClient{topic: topic, srcTS: e.SrcTS,
				l: g.client(topic, e.SrcTS), curOut: decorate(topic, 0)}
			p.resolve()
			m.diags = append(m.diags, diagSlot{d: Diagnostic{PID: m.pid, Time: e.Time}, pend: p})
			if !p.final {
				g.pending = append(g.pending, p)
			}
			contrib.pend = p
		default:
			contrib.fixed = topic
		}
		m.cur.outs = append(m.cur.outs, contrib)
		m.cur.inst.Writes = append(m.cur.inst.Writes, Write{Topic: topic, SrcTS: e.SrcTS})

	case e.Kind == trace.KindTakeTypeErased && e.Ret == 0: // P14: will not dispatch
		m.cur = nil

	case e.Kind == trace.KindSyncSubscribe && m.cur != nil: // P7
		m.cur.cb.IsSync = true

	case e.Kind.IsCBEnd() && m.cur != nil: // P4 / P8 / P11 / P15
		cur := m.cur
		cur.inst.Start = cur.start
		cur.inst.End = e.Time
		cur.inst.ET = et
		m.merge(cur)
		m.cur = nil
	}
}

// merge folds a completed instance into the machine's CBlist: it joins
// the entry with the same ID, and for service entries also the same
// (caller-decorated) in-topic. Both sides of the comparison are stable
// under stream growth (caller decoration rests on findCaller), so merge
// decisions never need revisiting.
func (m *pidMachine) merge(cur *curState) {
	for _, e := range m.list {
		if e.cb.ID != cur.cb.ID {
			continue
		}
		if e.cb.Type == CBService && e.cb.InTopic != cur.cb.InTopic {
			continue
		}
		e.addInstance(cur.inst)
		for _, c := range cur.outs {
			e.addOut(c)
		}
		if cur.cb.IsSync {
			e.cb.IsSync = true
		}
		if e.cb.InTopic == "" {
			e.cb.InTopic = cur.cb.InTopic
		}
		return
	}
	e := &cbEntry{
		cb: Callback{PID: cur.cb.PID, Type: cur.cb.Type, ID: cur.cb.ID,
			InTopic: cur.cb.InTopic, IsSync: cur.cb.IsSync},
		outRefs: make(map[string]int),
	}
	e.addInstance(cur.inst)
	for _, c := range cur.outs {
		e.addOut(c)
	}
	m.list = append(m.list, e)
}

// materialize assembles a Model from the accumulators: fresh Callback
// headers over clamp-shared slices in PID order, with diagnostics
// filtered by current pending resolutions and an open instance
// reported as truncated. It also returns each timer callback's period,
// read off the running medians, so buildDAG needs no engine state.
func (g *snapEngine) materialize() (*Model, map[*Callback]sim.Duration) {
	m := &Model{NodeOf: make(map[uint32]string, len(g.nodeOf))}
	pids := make([]uint32, 0, len(g.nodeOf))
	for pid, node := range g.nodeOf {
		m.NodeOf[pid] = node
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	periods := make(map[*Callback]sim.Duration)
	for _, pid := range pids {
		mach := g.pids[pid].mach
		for _, e := range mach.list {
			cb := e.snapshotCallback(g.nodeOf[pid])
			if cb.Type == CBTimer {
				periods[cb] = e.period()
			}
			m.Callbacks = append(m.Callbacks, cb)
		}
		kept := mach.diags[:0]
		for _, slot := range mach.diags {
			if p := slot.pend; p != nil {
				if p.id != 0 {
					if !p.final {
						kept = append(kept, slot) // hidden while the client holds
					}
					continue
				}
				if slot.d.Msg == "" {
					slot.d.Msg = fmt.Sprintf("no dispatched client found for response on %s srcTS=%d", p.topic, p.srcTS)
				}
			}
			kept = append(kept, slot)
			m.Diags = append(m.Diags, slot.d)
		}
		clear(mach.diags[len(kept):])
		mach.diags = kept
		if mach.cur != nil {
			m.Diags = append(m.Diags, Diagnostic{pid, mach.cur.start,
				"instance open at end of trace (truncated)"})
		}
	}
	return m, periods
}

// medianTracker maintains the upper median of a growing multiset with
// two heaps: lo (a max-heap) holds the smaller floor(n/2) elements, hi
// (a min-heap) the larger ceil(n/2), so hi's root is element n/2 of the
// sorted multiset — exactly what EstimatePeriod's sort produces.
type medianTracker struct {
	lo, hi []sim.Duration
}

func (m *medianTracker) push(d sim.Duration) {
	if len(m.hi) == 0 || d >= m.hi[0] {
		heapPush(&m.hi, d, false)
	} else {
		heapPush(&m.lo, d, true)
	}
	if len(m.hi) > len(m.lo)+1 {
		heapPush(&m.lo, heapPop(&m.hi, false), true)
	} else if len(m.lo) > len(m.hi) {
		heapPush(&m.hi, heapPop(&m.lo, true), false)
	}
}

func (m *medianTracker) upperMedian() sim.Duration {
	if len(m.hi) == 0 {
		return 0
	}
	return m.hi[0]
}

// heapPush / heapPop implement a binary heap over a duration slice; max
// selects max-heap ordering.
func heapPush(h *[]sim.Duration, d sim.Duration, max bool) {
	s := append(*h, d)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapAbove(s[i], s[parent], max) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func heapPop(h *[]sim.Duration, max bool) sim.Duration {
	s := *h
	root := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s) && heapAbove(s[l], s[best], max) {
			best = l
		}
		if r < len(s) && heapAbove(s[r], s[best], max) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	*h = s
	return root
}

// heapAbove reports whether a should sit above b in the heap.
func heapAbove(a, b sim.Duration, max bool) bool {
	if max {
		return a > b
	}
	return a < b
}
