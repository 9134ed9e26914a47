package core

import (
	"fmt"
	"sort"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// snapEngine is the Algorithm 1 engine behind every ModelBuilder: it
// folds the ROS event stream delta by delta, keeping the per-PID
// extraction state machines, the caller/client search index, and
// per-callback accumulators alive between folds, so a periodic snapshot
// costs in proportion to the events observed since the previous one,
// not to session length.
//
// A fold over any prefix of a stream yields the model a batch extraction
// over exactly that prefix would (the batch test oracle pins this). That
// rests on which Algorithm 1 lookups are stable under stream growth:
//
//   - findCaller is stable: a request's dds_write precedes its
//     take_request in (Time, Seq) order (the write causes the take), so
//     by the time the take is folded the index already holds the write,
//     and positions only ever append — the first match never changes.
//   - FindClient is NOT stable: the take_response and
//     take_type_erased_response events that identify the dispatched
//     client follow the response's dds_write in time, so the answer for
//     an already-extracted write can change as the stream grows — from
//     "no client" (decoration #0 plus a diagnostic) to the real client
//     ID. Such lookups stay pending: every snapshot re-resolves them
//     against the current index, updating the owning callback's
//     decorated out-topic set and suppressing the diagnostic once a
//     client appears, until the answer is provably final (a dispatched
//     client found with every earlier take definitively skipped).
//
// All other attributes fold forward: merged callbacks accumulate stats,
// instances, and refcounted out-topics; timer periods keep an exact
// two-heap running median over inter-start gaps, matching
// Callback.EstimatePeriod's upper-median element for any length.
type snapEngine struct {
	ros    []trace.Event // the builder's ros buffer, all PIDs
	folded int           // prefix of ros already folded

	// writesBy maps (request topic, srcTS) to positions of dds_write
	// events in ros; takeRespBy maps (response topic, srcTS) to positions
	// of P13 events. Both only ever append.
	writesBy, takeRespBy map[topicTS][]int

	// tte holds take_type_erased_response positions per PID, the
	// resumable form of FindClient's forward scan: the outcome for
	// a take at position p is decided by the first entry past p.
	tte map[uint32][]ttePoint

	nodeOf   map[uint32]string
	machines map[uint32]*pidMachine

	// et carries closed-window execution times from the ModelBuilder's
	// log to the callback-end events that consume them. A fold leaves
	// behind only the windows of PIDs no P1 event has named yet.
	et map[etKey]sim.Duration

	pending []*pendingClient
}

type ttePoint struct {
	pos int
	ret uint64
}

func newSnapEngine() *snapEngine {
	return &snapEngine{
		writesBy:   make(map[topicTS][]int),
		takeRespBy: make(map[topicTS][]int),
		tte:        make(map[uint32][]ttePoint),
		nodeOf:     make(map[uint32]string),
		machines:   make(map[uint32]*pidMachine),
		et:         make(map[etKey]sim.Duration),
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
// stream so far would emit it.
type diagSlot struct {
	d    Diagnostic
	pend *pendingClient
}

// curState is the instance currently open on a PID (CB.* in the
// paper).
type curState struct {
	cb       Callback // ID, Type, InTopic, IsSync accumulate here
	outs     []outContrib
	start    sim.Time
	startSeq uint64
	inst     Instance
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
// response dds_write and re-resolved against the grown index at every
// snapshot until final.
type pendingClient struct {
	topic  string // response topic (the write's topic, also the lookup key)
	srcTS  int64
	owner  *cbEntry // merged entry holding the out-topic contribution; nil while the instance is open or discarded
	curOut string   // decorated string currently in owner's refcounts
	id     uint64
	final  bool
}

func (p *pendingClient) set(id uint64, final bool) {
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

// fold advances the engine over the builder's delta: ros is the
// (Time, Seq)-sorted ROS event prefix observed so far and etLog the
// windows closed at its callback-end events since the previous fold.
// The delta is indexed first and extracted second, so a caller search
// from inside the delta already sees writes later in the same delta.
func (g *snapEngine) fold(ros []trace.Event, etLog []etEntry) {
	if len(g.et) == 0 && len(etLog) > 0 {
		g.et = make(map[etKey]sim.Duration, len(etLog)) // sized: no rehash mid-fold
	}
	for _, rec := range etLog {
		g.et[rec.key] = rec.et
	}

	g.ros = ros
	for i := g.folded; i < len(ros); i++ {
		e := &ros[i]
		switch e.Kind {
		case trace.KindDDSWrite:
			// FindCaller looks up request writes only; indexing the
			// plain-topic bulk would cost a map entry per message.
			if dds.IsRequestTopic(e.Topic) {
				k := topicTS{e.Topic, e.SrcTS}
				g.writesBy[k] = append(g.writesBy[k], i)
			}
		case trace.KindTakeResponse:
			k := topicTS{dds.ServiceResponseTopic(e.Topic), e.SrcTS}
			g.takeRespBy[k] = append(g.takeRespBy[k], i)
		case trace.KindTakeTypeErased:
			g.tte[e.PID] = append(g.tte[e.PID], ttePoint{i, e.Ret})
		case trace.KindCreateNode:
			g.nodeOf[e.PID] = e.Node
		}
	}
	for i := g.folded; i < len(ros); i++ {
		if m := g.machineFor(ros[i].PID); m != nil {
			m.step(g, &ros[i])
		}
	}
	g.folded = len(ros)
	// Windows a named PID's machine left belonged to instances P14
	// discarded; those of PIDs not yet named wait for a replay.
	for _, rec := range etLog {
		if g.machines[rec.key.pid] != nil {
			delete(g.et, rec.key)
		}
	}
}

// machineFor returns pid's extraction machine, or nil while no P1 event
// has named pid's node: Algorithm 1 models initialized nodes only. A PID
// named after some of its events were folded first replays them, which
// yields what stepping them in their own fold would have.
func (g *snapEngine) machineFor(pid uint32) *pidMachine {
	m := g.machines[pid]
	if m == nil {
		if _, ok := g.nodeOf[pid]; !ok {
			return nil
		}
		m = &pidMachine{pid: pid}
		g.machines[pid] = m
		for i := range g.ros[:g.folded] {
			if e := &g.ros[i]; e.PID == pid {
				m.step(g, e)
			}
		}
	}
	return m
}

// takeET consumes one closed window's execution time. Each window is
// read exactly once (its callback-end event), so the entry is deleted.
func (g *snapEngine) takeET(pid uint32, startSeq uint64) sim.Duration {
	k := etKey{pid, startSeq}
	d := g.et[k]
	delete(g.et, k)
	return d
}

// findCaller implements Algorithm 1's FindCaller: locate the dds_write of
// the request (same topic and source timestamp), then walk that PID's
// events backwards to the ID-bearing event (timer call or take) after the
// caller's last callback start.
func (g *snapEngine) findCaller(reqTopic string, srcTS int64) uint64 {
	positions := g.writesBy[topicTS{reqTopic, srcTS}]
	if len(positions) == 0 {
		return 0
	}
	pos := positions[0]
	writerPID := g.ros[pos].PID
	for j := pos - 1; j >= 0; j-- {
		e := g.ros[j]
		if e.PID != writerPID {
			continue
		}
		if e.Kind.IsCBStart() {
			return 0 // reached the caller's CB start without an ID event
		}
		if e.Kind == trace.KindTimerCall || e.Kind.IsTake() {
			return e.CBID
		}
	}
	return 0
}

// tteAfter finds the first take_type_erased_response of pid past pos —
// FindClient's forward scan as a binary search over the per-PID position
// list. ok is false while no such event has been observed yet.
func (g *snapEngine) tteAfter(pid uint32, pos int) (ttePoint, bool) {
	list := g.tte[pid]
	i := sort.Search(len(list), func(i int) bool { return list[i].pos > pos })
	if i == len(list) {
		return ttePoint{}, false
	}
	return list[i], true
}

// resolve recomputes a pending client lookup against the current index —
// Algorithm 1's FindClient: among the take_response events matching the
// response write, in stream order, the first whose next
// take_type_erased_response (same PID) returned 1 names the dispatched
// client; a take whose next type-erased take returned 0 is skipped for
// good; a take with no type-erased take yet is skipped for now. The
// answer is final only when a client was found and every earlier take
// was definitively skipped — otherwise later events could change it,
// exactly as a batch re-run over the longer stream could.
func (g *snapEngine) resolve(p *pendingClient) {
	positions := g.takeRespBy[topicTS{p.topic, p.srcTS}]
	definitive := true
	for _, pos := range positions {
		take := g.ros[pos]
		tte, ok := g.tteAfter(take.PID, pos)
		if !ok {
			definitive = false
			continue
		}
		if tte.ret == 1 {
			p.set(take.CBID, definitive)
			return
		}
	}
	p.set(0, false)
}

// resolvePending re-resolves every open client lookup and drops the
// ones that became final.
func (g *snapEngine) resolvePending() {
	old := g.pending
	live := old[:0]
	for _, p := range old {
		g.resolve(p)
		if !p.final {
			live = append(live, p)
		}
	}
	for i := len(live); i < len(old); i++ {
		old[i] = nil // release finalized lookups
	}
	g.pending = live
}

// step folds one ROS event into the PID's extraction machine — one
// iteration of Algorithm 1's traversal. Out-topic decoration for
// responses goes through a pendingClient, and execution times come from
// the builder's online Algorithm 2 fold.
func (m *pidMachine) step(g *snapEngine, e *trace.Event) {
	switch {
	case e.Kind.IsCBStart(): // P2 / P5 / P9 / P12
		if m.cur != nil {
			m.diags = append(m.diags, diagSlot{d: Diagnostic{m.pid, e.Time,
				fmt.Sprintf("callback start %v while instance from %v still open", e.Kind, m.cur.start)}})
		}
		cur := &curState{start: e.Time, startSeq: e.Seq}
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
			caller := g.findCaller(reqTopic, e.SrcTS)
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
			p := &pendingClient{topic: topic, srcTS: e.SrcTS, curOut: decorate(topic, 0)}
			g.resolve(p)
			m.diags = append(m.diags, diagSlot{
				d: Diagnostic{m.pid, e.Time,
					fmt.Sprintf("no dispatched client found for response on %s srcTS=%d", topic, e.SrcTS)},
				pend: p,
			})
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
		cur.inst.ET = g.takeET(m.pid, cur.startSeq)
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
// reported as truncated. The returned periodOf closes over the
// entries' running medians for buildDAG.
func (g *snapEngine) materialize() (*Model, func(*Callback) sim.Duration) {
	m := &Model{NodeOf: make(map[uint32]string, len(g.nodeOf))}
	pids := make([]uint32, 0, len(g.nodeOf))
	for pid, node := range g.nodeOf {
		m.NodeOf[pid] = node
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	entryOf := make(map[*Callback]*cbEntry)
	for _, pid := range pids {
		mach := g.machines[pid]
		if mach == nil {
			continue
		}
		for _, e := range mach.list {
			cb := e.snapshotCallback(g.nodeOf[pid])
			entryOf[cb] = e
			m.Callbacks = append(m.Callbacks, cb)
		}
		for _, slot := range mach.diags {
			if slot.pend == nil || slot.pend.id == 0 {
				m.Diags = append(m.Diags, slot.d)
			}
		}
		if mach.cur != nil {
			m.Diags = append(m.Diags, Diagnostic{pid, mach.cur.start,
				"instance open at end of trace (truncated)"})
		}
	}
	periodOf := func(cb *Callback) sim.Duration {
		if e := entryOf[cb]; e != nil {
			return e.period()
		}
		return cb.EstimatePeriod()
	}
	return m, periodOf
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
