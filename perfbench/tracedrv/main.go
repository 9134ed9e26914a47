// Command tracedrv is the session benchmark's in-process traced driver.
// It wires the tracer exactly as cmd/rostracer and cmd/modelsynth do and
// records a span around every call into a layer's public API, so the
// benchmark's end-to-end numbers can be split by layer.
//
//	tracedrv trace -workload record -seed 1 -duration 300s -seconds 10 -work DIR -spans FILE
//	tracedrv queries -store DIR -seed 1 -duration 300s -count 40
//
// trace prints one JSON object with the per-layer metrics; queries
// prints the seeded query set with each query's brute-force match count,
// which the end-to-end readback workload checks modelsynth against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracedrv: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: tracedrv trace|queries [flags]")
	}
	var err error
	switch os.Args[1] {
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "queries":
		err = cmdQueries(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
}

func cmdQueries(args []string) error {
	fs := flag.NewFlagSet("queries", flag.ExitOnError)
	store := fs.String("store", "", "store directory holding the session")
	seed := fs.Uint64("seed", 1, "query seed")
	duration := fs.Duration("duration", 300*time.Second, "virtual length of the stored session")
	count := fs.Int("count", 40, "number of queries")
	fs.Parse(args)

	all, nodes, err := loadAll(*store)
	if err != nil {
		return err
	}
	qs, err := genQueries(*seed, sim.Duration(*duration), nodes, *count)
	if err != nil {
		return err
	}
	type expectation struct {
		Args    []string `json:"args"`
		Matched int      `json:"matched"`
	}
	out := struct {
		Events  int           `json:"events"`
		Queries []expectation `json:"queries"`
	}{Events: len(all)}
	for _, q := range qs {
		out.Queries = append(out.Queries, expectation{q.Args, len(bruteForce(all, q.Filter))})
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// metric is one per-layer value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repResult is everything one repetition of the traced phases measured.
type repResult struct {
	metrics   map[string]metric
	phaseWall time.Duration // the workload's own phase, for the overhead ratio
	events    int
}

// tally counts operations attempted and failed, keeping the reasons.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures"`
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.Attempted++
	if !ok {
		t.Failed++
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	workload := fs.String("workload", "record", "record, live or readback: whose phase the runtime.* metrics and the overhead ratio cover")
	seed := fs.Uint64("seed", 1, "world and query seed")
	duration := fs.Duration("duration", 300*time.Second, "virtual length of every session")
	seconds := fs.Float64("seconds", 10, "repeat the traced phases while another repetition fits in this many wall seconds (at least once)")
	work := fs.String("work", "", "scratch directory for the traced stores")
	queries := fs.Int("queries", 40, "seeded queries per repetition")
	spansPath := fs.String("spans", "", "write every span and sink counter here at the end")
	fs.Parse(args)
	if !slices.Contains([]string{"record", "live", "readback"}, *workload) {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *work == "" {
		return fmt.Errorf("-work is required")
	}

	var t tally
	var reps []repResult
	var recs []map[string]*Recorder
	start := time.Now()
	var last time.Duration // one repetition's length: the next must fit in -seconds
	for len(reps) == 0 || (time.Since(start)+last).Seconds() <= *seconds {
		repStart := time.Now()
		phases := map[string]*Recorder{}
		recs = append(recs, phases)
		r, err := oneRep(phases, &t, *workload, *seed, sim.Duration(*duration), *work, *queries)
		if !t.check(err == nil, "repetition %d: %v", len(recs), err) {
			break
		}
		reps = append(reps, r)
		last = time.Since(repStart)
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, recs); err != nil {
			return err
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("no repetition completed: %v", t.Failures)
	}
	out := struct {
		tally
		Metrics   map[string]metric `json:"metrics"`
		PhaseWall float64           `json:"phase_wall_s"`
		Events    int               `json:"events"`
		Reps      int               `json:"reps"`
	}{tally: t, Metrics: medianMetrics(reps), Reps: len(reps), Events: reps[0].events}
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.phaseWall.Seconds())
		if r.events != out.Events {
			t.check(false, "event total %d != %d across repetitions", r.events, out.Events)
		}
	}
	out.PhaseWall = median(walls)
	out.tally = t
	return json.NewEncoder(os.Stdout).Encode(out)
}

// oneRep runs every traced phase once, each with its own recorder in
// phases: a detached world, a record session, a live session, and the
// read paths over the record store. Every per-layer metric comes out of
// every repetition; the workload only selects whose phase the runtime.*
// metrics and phaseWall cover.
func oneRep(phases map[string]*Recorder, t *tally, workload string, seed uint64, duration sim.Duration, work string, nQueries int) (repResult, error) {
	vsec := duration.Seconds()
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var res repResult
	var rt runtimeDelta

	rec := NewRecorder()
	phases["detached"] = rec
	detachedRun(rec, seed, duration)
	detached := rec.SumDuration("rclcpp.World.Run")

	recordDir := filepath.Join(work, "record")
	store, err := freshStore(recordDir)
	if err != nil {
		return res, err
	}
	rec = NewRecorder()
	phases["record"] = rec
	rt.begin(workload == "record")
	recRes, err := tracedSession(rec, t, store, recordDir, seed, duration, false)
	rt.end(workload == "record", recRes.events, recRes.heapPeak)
	if !t.check(err == nil, "record session: %v", err) {
		return res, err
	}
	res.events = recRes.events
	if workload == "record" {
		res.phaseWall = recRes.wall
	}

	// The record session's layers.
	run := rec.SumDuration("rclcpp.World.Run")
	set("rclcpp.run_s_per_vsec", run.Seconds()/vsec, "s/s")
	set("rclcpp.detached_run_s_per_vsec", detached.Seconds()/vsec, "s/s")
	set("ebpf.fire_s_per_vsec", (run-detached).Seconds()/vsec, "s/s")
	set("tracers.stream_self_s_per_vsec", rec.SumSelf("tracers.Bundle.StreamTo").Seconds()/vsec, "s/s")
	set("tracers.payload_bytes_per_event", float64(recRes.payload)/float64(recRes.events), "B")
	set("service.writer.observe_s_per_vsec", ns(rec.Counter("service.writer.observe").Ns).Seconds()/vsec, "s/s")
	seg := rec.SumDuration("service.SessionWriter.BeginSegment") + rec.SumDuration("service.SessionWriter.EndSegment") +
		rec.SumDuration("service.SessionWriter.Close")
	set("service.writer.segment_s_per_vsec", seg.Seconds()/vsec, "s/s")
	files, err := filepath.Glob(filepath.Join(recordDir, "*.rtrc"))
	if err != nil {
		return res, err
	}
	set("trace.store.files_per_vmin", float64(len(files))/(vsec/60), "1/min")

	liveDir := filepath.Join(work, "live")
	liveStore, err := freshStore(liveDir)
	if err != nil {
		return res, err
	}
	rec = NewRecorder()
	phases["live"] = rec
	rt.begin(workload == "live")
	liveRes, err := tracedSession(rec, t, liveStore, liveDir, seed, duration, true)
	rt.end(workload == "live", liveRes.events, liveRes.heapPeak)
	if !t.check(err == nil, "live session: %v", err) {
		return res, err
	}
	t.check(liveRes.events == recRes.events, "live events %d != record events %d", liveRes.events, recRes.events)
	if workload == "live" {
		res.phaseWall = liveRes.wall
	}
	if err := os.RemoveAll(liveDir); err != nil {
		return res, err
	}

	// Ledgers of both sessions, and the live session's layers.
	set("tracers.lost_records", float64(recRes.lost+liveRes.lost), "count")
	set("service.writer.retries", float64(recRes.writer.Retries+liveRes.writer.Retries), "count")
	set("service.writer.rotations", float64(recRes.writer.Rotations+liveRes.writer.Rotations), "count")
	set("service.writer.dropped", float64(recRes.writer.Dropped+liveRes.writer.Dropped), "count")
	set("metrics.sink.observe_s_per_vsec", ns(rec.Counter("metrics.sink.observe").Ns).Seconds()/vsec, "s/s")
	set("metrics.pipeline.update_s_per_vsec", rec.SumDuration("metrics.pipeline.update").Seconds()/vsec, "s/s")
	set("core.snapshot_service.observe_s_per_vsec", ns(rec.Counter("core.snapshot_service.observe").Ns).Seconds()/vsec, "s/s")
	var snapMs []float64
	for _, i := range rec.Named("core.SnapshotService.Snapshot") {
		snapMs = append(snapMs, ms(rec.Duration(i)))
	}
	t.check(len(snapMs) == liveRes.snapshots && len(snapMs) > 0, "live session took %d snapshots", len(snapMs))
	set("core.snapshot.p50_ms", median(snapMs), "ms")
	set("core.snapshot.max_ms", slices.Max(snapMs), "ms")
	set("core.snapshot.write_s_per_vsec", rec.SumDuration("core.snapshot.write").Seconds()/vsec, "s/s")
	set("core.heap_growth_4n_over_n", float64(liveRes.heap4N)/float64(liveRes.heapN), "ratio")

	// The read paths over the record store.
	rec = NewRecorder()
	phases["readback"] = rec
	all, nodes, err := loadAll(recordDir)
	if err != nil {
		return res, err
	}
	t.check(len(all) == recRes.events, "store holds %d events, session persisted %d", len(all), recRes.events)
	qs, err := genQueries(seed, duration, nodes, nQueries)
	if err != nil {
		return res, err
	}
	wants := make([][]trace.Event, len(qs))
	for i, q := range qs {
		wants[i] = bruteForce(all, q.Filter)
	}
	qstore, err := trace.NewStore(recordDir)
	if err != nil {
		return res, err
	}
	rt.begin(workload == "readback")
	syn, err := tracedSynthesis(rec, recordDir)
	if !t.check(err == nil && syn.events == recRes.events, "full synthesis: %d events, %v", syn.events, err) {
		return res, fmt.Errorf("full synthesis failed: %v", err)
	}
	if workload == "readback" {
		res.phaseWall = syn.wall
	}
	var qSelf []float64
	var segsOpened, blocksRead, blocksTotal, decoded, matched int
	for i, q := range qs {
		o, err := tracedQuery(rec, qstore, q.Filter, wants[i])
		if !t.check(err == nil && o.ok, "query %v: differs from the brute-force filter (err %v)", q.Args, err) {
			continue
		}
		qSelf = append(qSelf, ms(o.self))
		segsOpened += o.stats.Segments
		blocksRead += o.stats.BlocksRead
		blocksTotal += o.stats.BlocksTotal
		decoded += o.stats.RecordsDecoded
		matched += o.stats.RecordsMatched
	}
	rt.end(workload == "readback", syn.events, max(syn.heapPeak, heapObjects()))
	if len(qSelf) == 0 {
		return res, fmt.Errorf("no query succeeded")
	}
	set("core.synthesize_sink.s", (ns(rec.Counter("core.synthesize_sink.observe").Ns) + rec.SumDuration("core.SynthesizeSink.DAG")).Seconds(), "s")
	set("core.merge_dags_s", rec.SumDuration("core.MergeDAGs").Seconds(), "s")
	set("trace.stream_session_self_s", rec.SumSelf("trace.Store.StreamSession").Seconds(), "s")
	set("trace.query.self_ms_p50", median(qSelf), "ms")
	set("trace.query.segments_opened", float64(segsOpened)/float64(len(qSelf)), "count")
	set("trace.query.block_read_ratio", float64(blocksRead)/float64(blocksTotal), "ratio")
	set("trace.query.match_ratio", float64(matched)/float64(max(decoded, 1)), "ratio")

	// Parallel read path against the sequential one, alternating.
	var seq, par []float64
	for i := 0; i < 3; i++ {
		s1, err1 := streamSelf(rec, recordDir, 1)
		s0, err0 := streamSelf(rec, recordDir, 0)
		if err1 != nil || err0 != nil {
			return res, fmt.Errorf("stream session: %v / %v", err1, err0)
		}
		seq, par = append(seq, s1.Seconds()), append(par, s0.Seconds())
	}
	set("trace.parallel_speedup", median(seq)/median(par), "ratio")

	set("runtime.gc_cpu_share", rt.gcShare, "ratio")
	set("runtime.alloc_bytes_per_event", rt.allocPerEvent, "B")
	set("runtime.heap_peak_mb", float64(rt.heapPeak)/(1<<20), "MB")
	res.metrics = m
	return res, nil
}

func freshStore(dir string) (*trace.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return trace.NewStore(dir)
}

// runtimeDelta measures Go runtime costs over one phase: the GC's share
// of all CPU time, bytes allocated per event, and peak heap.
type runtimeDelta struct {
	start         []metrics.Sample
	gcShare       float64
	allocPerEvent float64
	heapPeak      uint64
}

var runtimeNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (r *runtimeDelta) begin(on bool) {
	if on {
		r.start = readRuntime()
	}
}

func (r *runtimeDelta) end(on bool, events int, heapPeak uint64) {
	if !on {
		return
	}
	now := readRuntime()
	gc := now[0].Value.Float64() - r.start[0].Value.Float64()
	total := now[1].Value.Float64() - r.start[1].Value.Float64()
	if total > 0 {
		r.gcShare = gc / total
	}
	r.allocPerEvent = float64(now[2].Value.Uint64()-r.start[2].Value.Uint64()) / float64(max(events, 1))
	r.heapPeak = max(r.heapPeak, heapPeak)
}

// heapObjects reads the bytes of live and not-yet-swept heap objects
// without stopping the world.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func medianMetrics(reps []repResult) map[string]metric {
	out := map[string]metric{}
	for name, m := range reps[0].metrics {
		var vs []float64
		for _, r := range reps {
			vs = append(vs, r.metrics[name].Value)
		}
		out[name] = metric{median(vs), m.Unit}
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ns(v int64) time.Duration   { return time.Duration(v) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans saves every repetition's spans and sink counters, per phase.
func writeSpans(path string, recs []map[string]*Recorder) error {
	type phase struct {
		Spans    []Span              `json:"spans"`
		Counters map[string]*Counter `json:"counters"`
	}
	var out []map[string]phase
	for _, phases := range recs {
		m := map[string]phase{}
		for name, r := range phases {
			m[name] = phase{r.spans, r.counters}
		}
		out = append(out, m)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
