package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// synthesisResult is one traced full-store synthesis.
type synthesisResult struct {
	events   int
	summary  string
	wall     time.Duration
	heapPeak uint64 // heap objects bytes after each stream and DAG build
}

// tracedSynthesis mirrors cmd/modelsynth -in DIR: stream every session
// into a synthesis sink, build its DAG, merge the DAGs and summarize.
func tracedSynthesis(rec *Recorder, dir string) (synthesisResult, error) {
	var res synthesisResult
	start := time.Now()
	root := rec.Begin("modelsynth")
	store, err := trace.NewStore(dir)
	if err != nil {
		return res, err
	}
	sessions, err := store.Sessions()
	if err != nil {
		return res, err
	}
	var dags []*core.DAG
	for _, s := range sessions {
		synth := core.NewSynthesizeSink()
		var span trace.SpanTracker
		rec.Time("trace.Store.StreamSession", func() {
			err = store.StreamSession(s, trace.MultiSink(
				rec.Sink("core.synthesize_sink.observe", synth),
				rec.Sink("modelsynth.span_tracker", &span)))
		})
		if err != nil {
			return res, fmt.Errorf("streaming %s: %w", s, err)
		}
		res.heapPeak = max(res.heapPeak, heapObjects())
		rec.Time("core.SynthesizeSink.DAG", func() { dags = append(dags, synth.DAG()) })
		res.heapPeak = max(res.heapPeak, heapObjects())
		res.events += span.Total()
	}
	if len(dags) == 0 {
		return res, fmt.Errorf("no sessions in %s", dir)
	}
	var d *core.DAG
	rec.Time("core.MergeDAGs", func() { d = core.MergeDAGs(dags...) })
	rec.Time("core.Summary", func() { res.summary = core.Summary(d) })
	rec.End(root)
	res.wall = time.Since(start)
	return res, nil
}

// streamSelf times one StreamSession of the session into an event
// counter at the given parallelism and returns the read path's self time.
func streamSelf(rec *Recorder, dir string, parallelism int) (time.Duration, error) {
	store, err := trace.NewStore(dir)
	if err != nil {
		return 0, err
	}
	store.Parallelism = parallelism
	var kc trace.KindCounter
	i := rec.Time(fmt.Sprintf("trace.Store.StreamSession.p%d", parallelism), func() {
		err = store.StreamSession(session, rec.Sink("bench.kind_counter", &kc))
	})
	return rec.SelfTime(i), err
}

// queryOutcome is one traced windowed query.
type queryOutcome struct {
	self  time.Duration
	stats trace.QueryStats
	ok    bool
}

// tracedQuery mirrors cmd/modelsynth -in DIR with a filter, and checks
// the events the query delivered against want.
func tracedQuery(rec *Recorder, store *trace.Store, f trace.Filter, want []trace.Event) (queryOutcome, error) {
	var out queryOutcome
	synth := core.NewSynthesizeSink()
	var span trace.SpanTracker
	var got trace.Collector
	var err error
	root := rec.Begin("modelsynth.query")
	i := rec.Time("trace.Store.QuerySession", func() {
		out.stats, err = store.QuerySession(session, f, rec.Sink("query.sink",
			trace.MultiSink(synth, &span, &got)))
	})
	if err != nil {
		rec.End(root)
		return out, err
	}
	rec.Time("modelsynth.model", func() {
		core.Summary(core.MergeDAGs(synth.DAG()))
	})
	rec.End(root)
	out.self = rec.SelfTime(i)
	out.ok = slices.Equal(got.Trace.Events, want) && out.stats.RecordsMatched == len(want)
	return out, nil
}

// Query is one seeded windowed query: the trace.Filter the traced driver
// runs and the same filter as modelsynth flags.
type Query struct {
	Filter trace.Filter
	Args   []string
}

// kindSets are the -kinds values the kind-restricted queries cycle
// through, written in the three spellings trace.ParseKind resolves. They
// are fixed rather than drawn, so that seeds differ only in where the
// windows fall and the query mix costs the same on every seed.
var kindSets = [][]string{
	{"sched_switch"},
	{"P6", "dds_write_impl"},
	{"P2", "execute_subscription:exit", "P13"},
	{"P5"},
	{"sched_switch", "P16"},
}

// genQueries draws n queries from seed over a session of duration.
// Three in four are one-second windows anywhere in the session, every
// other of those restricted to a set of event kinds. The fourth
// restricts to one node; node names ride only on P1 create-node events,
// which fire at start-up, so node windows open at time 0 and close
// within the first three seconds.
func genQueries(seed uint64, duration sim.Duration, nodes []string, n int) ([]Query, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no node names to query")
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed_0f_9e7))
	spanMs := int64(duration / sim.Millisecond)
	qs := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		var q Query
		t0 := 1 + rng.Int64N(spanMs-1001)
		t1 := t0 + 1000
		if i%4 == 3 {
			t0, t1 = 0, 1000+rng.Int64N(2001)
		}
		q.Filter.T0, q.Filter.T1 = sim.Time(t0)*sim.Time(sim.Millisecond), sim.Time(t1)*sim.Time(sim.Millisecond)
		q.Args = []string{"-t0", fmt.Sprintf("%dms", t0), "-t1", fmt.Sprintf("%dms", t1)}
		switch i % 4 {
		case 2:
			names := kindSets[(i/4)%len(kindSets)]
			for _, name := range names {
				k, ok := trace.ParseKind(name)
				if !ok {
					return nil, fmt.Errorf("unknown kind spelling %q", name)
				}
				q.Filter.Kinds = append(q.Filter.Kinds, k)
			}
			q.Args = append(q.Args, "-kinds", strings.Join(names, ","))
		case 3:
			q.Filter.Node = nodes[rng.IntN(len(nodes))]
			q.Args = append(q.Args, "-node", q.Filter.Node)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// bruteForce applies f to every event of the full session: the
// reference the indexed query path must reproduce.
func bruteForce(all []trace.Event, f trace.Filter) []trace.Event {
	var out []trace.Event
	for _, e := range all {
		if e.Time < f.T0 || (f.T1 != 0 && e.Time > f.T1) {
			continue
		}
		if len(f.Kinds) > 0 && !slices.Contains(f.Kinds, e.Kind) {
			continue
		}
		if f.Node != "" && e.Node != f.Node {
			continue
		}
		out = append(out, e)
	}
	return out
}

// loadAll streams the whole session into memory (untimed) and lists the
// node names its create-node events carry.
func loadAll(dir string) ([]trace.Event, []string, error) {
	store, err := trace.NewStore(dir)
	if err != nil {
		return nil, nil, err
	}
	var col trace.Collector
	if err := store.StreamSession(session, &col); err != nil {
		return nil, nil, err
	}
	var nodes []string
	for _, e := range col.Trace.Events {
		if e.Kind == trace.KindCreateNode && !slices.Contains(nodes, e.Node) {
			nodes = append(nodes, e.Node)
		}
	}
	slices.Sort(nodes)
	return col.Trace.Events, nodes, nil
}
