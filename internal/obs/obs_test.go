package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned zero")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %v != %v", back, id)
	}
	if _, err := ParseTraceID("zz"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestStartSpanDisabledIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "query")
	if s != nil {
		t.Fatal("span without trace should be nil")
	}
	if ctx2 != ctx {
		t.Fatal("context should be unchanged without a trace")
	}
	// Nil-span methods must all be safe.
	s.End()
	s.Count("ops", 1)

	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "query")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v per run, want 0", allocs)
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWith(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the trace")
	}

	ctx, root := StartSpan(ctx, "query/cluster")
	cctx, child := StartSpan(ctx, "build")
	child.Count("levels", 3)
	child.Count("levels", 2)
	if got := CurrentSpan(cctx); got != child {
		t.Fatal("CurrentSpan != innermost span")
	}
	_, grand := StartSpan(cctx, "lstep")
	grand.End()
	child.End()
	_, sib := StartSpan(ctx, "commit")
	sib.End()
	root.End()

	spans := tr.Spans()
	names := make([]string, len(spans))
	depths := make([]int, len(spans))
	for i, s := range spans {
		names[i], depths[i] = s.Name, s.Depth
	}
	wantNames := []string{"query/cluster", "build", "lstep", "commit"}
	wantDepths := []int{0, 1, 2, 1}
	for i := range wantNames {
		if i >= len(names) || names[i] != wantNames[i] || depths[i] != wantDepths[i] {
			t.Fatalf("spans = %v @ %v, want %v @ %v", names, depths, wantNames, wantDepths)
		}
	}
	if spans[1].Counters["levels"] != 5 {
		t.Fatalf("counter levels = %d, want 5", spans[1].Counters["levels"])
	}
	tree := tr.Tree()
	if !strings.Contains(tree, tr.ID().String()) || !strings.Contains(tree, "lstep") {
		t.Fatalf("Tree() missing pieces:\n%s", tree)
	}
}

func TestSpanCapAndConcurrency(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWith(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < maxSpans; i++ {
				_, s := StartSpan(ctx, "fanout")
				s.Count("n", 1)
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(tr.Spans()); n != maxSpans {
		t.Fatalf("recorded %d spans, want cap %d", n, maxSpans)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "Requests.", "endpoint", "/q", "code", "200")
	c.Add(3)
	r.Counter("reqs_total", "Requests.", "endpoint", "/q", "code", "200").Inc()
	g := r.Gauge("in_flight", "In flight.")
	g.Add(2)
	g.Add(-1)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}, "endpoint", "/q")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.AddScrapeFunc(func(w io.Writer) { fmt.Fprintf(w, "extra 1\n") })

	var b bytes.Buffer
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total Requests.",
		"# TYPE reqs_total counter",
		`reqs_total{endpoint="/q",code="200"} 4`,
		"in_flight 1",
		`lat_seconds_bucket{endpoint="/q",le="0.1"} 1`,
		`lat_seconds_bucket{endpoint="/q",le="1"} 2`,
		`lat_seconds_bucket{endpoint="/q",le="+Inf"} 3`,
		`lat_seconds_sum{endpoint="/q"} 5.55`,
		`lat_seconds_count{endpoint="/q"} 3`,
		"extra 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	h := Default.Histogram("obs_test_seconds", "test", []float64{0.01, 0.1, 1})
	allocs := testing.AllocsPerRun(100, func() { h.Observe(0.02) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	a, b, c := NewTrace(), NewTrace(), NewTrace()
	r.Add(a)
	r.Add(b)
	if r.Get(a.ID()) != a || r.Get(b.ID()) != b {
		t.Fatal("ring lost a live trace")
	}
	r.Add(c)
	if r.Get(a.ID()) != nil {
		t.Fatal("oldest trace should be evicted")
	}
	if r.Get(b.ID()) != b || r.Get(c.ID()) != c {
		t.Fatal("ring lost a live trace after eviction")
	}
}

func TestLoggerQuery(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, slog.LevelInfo, 50*time.Millisecond)
	id := NewTraceID()
	l.Query(id, "cluster", 5*time.Millisecond, "dataset", "points")
	l.Query(id, "cluster", 80*time.Millisecond)
	out := b.String()
	if !strings.Contains(out, id.String()) || !strings.Contains(out, "dataset=points") {
		t.Fatalf("log missing fields:\n%s", out)
	}
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "level=WARN") {
		t.Fatalf("slow query not escalated:\n%s", out)
	}

	// Nil logger: everything is a no-op.
	var nl *Logger
	nl.Info("x")
	nl.Query(id, "cluster", time.Second)
}
