package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process- or server-scoped set of metric families rendered
// in the Prometheus text exposition format. Metric handles (Counter, Gauge,
// Histogram) are get-or-create by (name, labels) and meant to be resolved
// once and kept: after resolution, updates are lock-free atomics with zero
// allocations, cheap enough for always-on use in warm query paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	scrapers []func(io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry. Library-level instrumentation
// (query stage timings, shard fan-out latency, replication health counters)
// records here; daemons render it alongside their own server-scoped
// registries.
var Default = NewRegistry()

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

type family struct {
	name    string
	help    string
	kind    familyKind
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // labelString -> *Counter | *Gauge | *Histogram
	order  []string
}

func (r *Registry) family(name, help string, kind familyKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// labelString renders alternating key/value pairs as {k1="v1",k2="v2"} in
// the order given (or "" for none). Label values are quoted with %q, so
// callers must keep them free of characters that would need more escaping
// than Go string quoting provides — the daemon's config validation bans
// quotes and newlines in principal names for exactly this reason.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) get(labels []string, make func() any) any {
	ls := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.series[ls]
	if m == nil {
		m = make()
		f.series[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; Inc adds one; Value reads it.
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution with lock-free observation.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound plus +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample. Zero allocations; safe for hot paths.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// Counter returns the named counter series, creating family and series as
// needed. labels are alternating key/value pairs; help is used on first
// creation of the family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return f.get(labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the named gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return f.get(labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the named histogram series with the given upper bounds
// (seconds, for latency histograms). All series of one family share the
// bounds passed at family creation.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	f := r.family(name, help, kindHistogram, bounds)
	return f.get(labels, func() any {
		return &Histogram{bounds: f.buckets, buckets: make([]atomic.Int64, len(f.buckets)+1)}
	}).(*Histogram)
}

// AddScrapeFunc registers a function invoked at every WriteText, after the
// registered families render. Daemons use it for gauges whose truth lives
// elsewhere (per-principal budget balances read from the ledger per scrape).
func (r *Registry) AddScrapeFunc(fn func(w io.Writer)) {
	r.mu.Lock()
	r.scrapers = append(r.scrapers, fn)
	r.mu.Unlock()
}

// WriteText renders every family (in registration order, series sorted by
// label string) followed by the scrape funcs, in the Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	var scrapers []func(io.Writer)
	scrapers = append(scrapers, r.scrapers...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.write(w)
	}
	for _, fn := range scrapers {
		fn(w)
	}
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	series := make([]any, len(order))
	for i, ls := range order {
		series[i] = f.series[ls]
	}
	f.mu.Unlock()
	sorted := make([]int, len(order))
	for i := range sorted {
		sorted[i] = i
	}
	sort.Slice(sorted, func(a, b int) bool { return order[sorted[a]] < order[sorted[b]] })

	typ := map[familyKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ)
	for _, i := range sorted {
		ls := order[i]
		switch m := series[i].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, ls, m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %g\n", f.name, ls, m.Value())
		case *Histogram:
			// Bucket lines append le to the series labels; cumulative
			// counts, then +Inf, _sum and _count, matching the daemon's
			// long-standing hand-rolled render byte for byte.
			prefix := "{"
			if ls != "" {
				prefix = ls[:len(ls)-1] + ","
			}
			cum := int64(0)
			for bi, bound := range m.bounds {
				cum += m.buckets[bi].Load()
				fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", f.name, prefix, bound, cum)
			}
			cum += m.buckets[len(m.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", f.name, prefix, cum)
			fmt.Fprintf(w, "%s_sum%s %g\n", f.name, ls, math.Float64frombits(m.sumBits.Load()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, m.count.Load())
		}
	}
}
