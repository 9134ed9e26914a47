package harness

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// TestMetricsEndpointSmoke is the /metrics smoke test make check runs: a
// live short session (the rostracer pipeline shape — bundle, drain
// fan-out, metrics sink, snapshot instrumentation) served over real HTTP
// and scraped concurrently with the drive loop. Every scrape must be
// parseable Prometheus text exposition carrying the session's publish-
// latency histograms and ring accounting.
func TestMetricsEndpointSmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := httptest.NewServer(metrics.Handler(reg))
	defer srv.Close()

	scrape := func() string {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("scrape content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("scrape body: %v", err)
		}
		return string(body)
	}

	// The live session: 8 segments of SYN+AVP under the tracers, each
	// drained through an isolating fan-out into the metrics sink and an
	// online synthesis service, with the pipeline gauges snapshotted per
	// segment — exactly rostracer's wiring, minus the disk.
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 1})
	b, err := tracers.NewBundleCapacity(w.Runtime(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	if err := b.StartInit(); err != nil {
		t.Fatal(err)
	}
	if err := b.StartRT(); err != nil {
		t.Fatal(err)
	}
	if err := b.StartKernel(true); err != nil {
		t.Fatal(err)
	}
	BuildBoth(1)(w)
	b.StopInit()

	msink := metrics.NewSink(reg)
	pm := metrics.NewPipelineMetrics(reg)
	snapSvc := core.NewSnapshotService()
	sink := trace.NewIsolatingMultiSink()
	sink.Add("metrics", msink)
	sink.Add("snapshot", snapSvc)

	// A scraper hammering the endpoint while the drive loop runs: the
	// endpoint must be serveable at any moment, not just between
	// segments (the -race gate turns any unsynchronized read into a
	// failure here).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := metrics.ParseExposition(scrape()); err != nil {
					t.Errorf("concurrent scrape unparseable: %v", err)
					return
				}
			}
		}
	}()

	const segments = 8
	const segDur = 250 * sim.Millisecond
	for k := 1; k <= segments; k++ {
		w.Run(segDur)
		if err := b.StreamTo(sink); err != nil {
			t.Fatal(err)
		}
		pm.UpdateBundle(b)
		pm.UpdateDrain(int64(segDur), k, 0)
		pm.UpdateIntern()
		pm.UpdateSinks(sink)
		pm.UpdateSynthesis(snapSvc)
	}
	close(stop)
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatalf("fan-out close: %v", err)
	}

	// The final scrape carries the whole session.
	text := scrape()
	parsed, err := metrics.ParseExposition(text)
	if err != nil {
		t.Fatalf("final scrape unparseable: %v\n%s", err, text)
	}
	if parsed.Types["rostracer_publish_latency_ns"] != "histogram" {
		t.Fatalf("publish-latency family missing or mistyped: %v", parsed.Types)
	}
	var topicBuckets, ringPending, ringLost, kindCounters int
	for _, key := range parsed.Series() {
		switch {
		case strings.HasPrefix(key, `rostracer_publish_latency_ns_bucket{topic="`):
			topicBuckets++
		case strings.HasPrefix(key, `rostracer_ring_pending_records{cpu="`):
			ringPending++
		case strings.HasPrefix(key, `rostracer_ring_lost_records_total{cpu="`):
			ringLost++
		case strings.HasPrefix(key, `rostracer_events_total{kind="`):
			kindCounters++
		}
	}
	if topicBuckets == 0 || ringPending == 0 || ringLost == 0 || kindCounters == 0 {
		t.Fatalf("final scrape incomplete: %d topic buckets, %d ring pending, %d ring lost, %d kind counters\n%s",
			topicBuckets, ringPending, ringLost, kindCounters, text)
	}
	if v, ok := reg.Value("rostracer_synthesis_events_total", ""); !ok || v == 0 {
		t.Fatalf("synthesis progress not exported: %v,%v", v, ok)
	}
	// Every traced PID with callbacks is named at start-up, so synthesis
	// holds no event for replay; the series must exist all the same.
	for _, name := range []string{"rostracer_synthesis_retained_events", "rostracer_synthesis_pending_lookups"} {
		if _, ok := parsed.Samples[name]; !ok || parsed.Types[name] != "gauge" {
			t.Fatalf("%s missing from the scrape or not a gauge\n%s", name, text)
		}
	}
	if v := parsed.Samples["rostracer_synthesis_retained_events"]; v != 0 {
		t.Fatalf("synthesis holds %v events for replay, want 0", v)
	}
}
