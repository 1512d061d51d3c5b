package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"privcluster"
	"privcluster/internal/ledger"
	"privcluster/internal/obs"
	"privcluster/internal/vec"
)

// Server is one privclusterd instance: the opened datasets, the durable
// ledger (held under its exclusive process lock for the server's
// lifetime), and the HTTP front end. Construct with New, bind and serve
// with Start, drain with Shutdown, release everything with Close.
type Server struct {
	cfg      Config
	led      *ledger.Ledger
	datasets map[string]*privcluster.Dataset
	byKey    map[string]string // api_key → principal name
	met      *metrics
	log      *obs.Logger
	traces   *obs.TraceRing

	http *http.Server
	ln   net.Listener

	// admin serves the profiling endpoints on cfg.AdminListen (nil when
	// unset) — a separate listener so pprof never shares an ACL with the
	// query port.
	admin   *http.Server
	adminLn net.Listener
}

// New opens the ledger (refusing to start if another process holds it —
// that refusal is the cross-process over-spend guarantee), raises the
// configured grants, loads every dataset CSV, and opens one Dataset
// handle per dataset with the ledger as its admission authority. It
// does not bind the listen address; Start does.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	led, err := ledger.Open(cfg.LedgerDir, ledger.Options{})
	if err != nil {
		return nil, fmt.Errorf("daemon: opening ledger %s: %w", cfg.LedgerDir, err)
	}
	s := &Server{
		cfg:      cfg,
		led:      led,
		datasets: make(map[string]*privcluster.Dataset, len(cfg.Datasets)),
		byKey:    make(map[string]string, len(cfg.Principals)),
		met:      newMetrics(),
		log:      obs.NewLogger(os.Stderr, slog.LevelInfo, cfg.slowQuery()),
		traces:   obs.NewTraceRing(256),
	}
	// Budget gauges are read from the ledger at scrape time, so /metrics
	// always reports the durable truth.
	s.met.reg.AddScrapeFunc(func(w io.Writer) { writeBudgets(w, s.budgetRows()) })
	fail := func(err error) (*Server, error) {
		s.Close()
		return nil, err
	}
	if err := ensureGrants(led, cfg.Principals); err != nil {
		return fail(err)
	}
	for _, p := range cfg.Principals {
		s.byKey[p.APIKey] = p.Name
	}
	for _, dc := range cfg.Datasets {
		ds, err := openDataset(dc, ledgerAdmitter{l: led, met: s.met})
		if err != nil {
			return fail(fmt.Errorf("daemon: dataset %q: %w", dc.Name, err))
		}
		s.datasets[dc.Name] = ds
	}
	s.http = &http.Server{Handler: s.mux()}
	if cfg.AdminListen != "" {
		amux := http.NewServeMux()
		amux.HandleFunc("/debug/pprof/", pprof.Index)
		amux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		amux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		amux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		amux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.admin = &http.Server{Handler: amux}
	}
	return s, nil
}

// openDataset loads one configured dataset's CSV and opens its handle
// with the shared ledger admitter gating every query.
func openDataset(dc DatasetConfig, adm privcluster.Admitter) (*privcluster.Dataset, error) {
	f, err := os.Open(dc.CSV)
	if err != nil {
		return nil, err
	}
	pts, err := vec.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dc.CSV, err)
	}
	place, err := dc.placement()
	if err != nil {
		return nil, err
	}
	return privcluster.Open(pts, privcluster.DatasetOptions{
		GridSize:  dc.Grid,
		Min:       dc.Min,
		Max:       dc.Max,
		Workers:   dc.Workers,
		Placement: place,
		Admitter:  adm,
	})
}

// Start binds the configured listen address (and the admin address, when
// configured) and serves in the background. Use Addr for the bound
// address (essential with ":0").
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.http.Serve(ln)
	if s.admin != nil {
		aln, err := net.Listen("tcp", s.cfg.AdminListen)
		if err != nil {
			ln.Close()
			s.ln = nil
			return fmt.Errorf("daemon: admin listen %s: %w", s.cfg.AdminListen, err)
		}
		s.adminLn = aln
		go s.admin.Serve(aln)
	}
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// AdminAddr returns the bound admin (pprof) address, or "" when the admin
// listener is not configured or not started.
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Shutdown gracefully drains the HTTP server: the listener closes
// immediately, in-flight requests run to completion until ctx expires.
// The admin listener (profiling only, nothing in flight worth draining)
// closes immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.admin != nil {
		s.admin.Close()
	}
	return s.http.Shutdown(ctx)
}

// Close releases everything: dataset handles and the ledger (dropping
// its process lock so a successor daemon can take over). Safe after a
// partial New.
func (s *Server) Close() error {
	var first error
	if s.admin != nil {
		s.admin.Close()
	}
	for _, ds := range s.datasets {
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.led != nil {
		if err := s.led.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mux wires the routes. Query endpoints are POST-only and authenticated;
// /metrics and /healthz are open (they carry no raw data — budgets and
// latencies are operational state).
func (s *Server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query/cluster", s.instrument("cluster", s.auth(s.handleCluster)))
	mux.Handle("POST /v1/query/kcover", s.instrument("kcover", s.auth(s.handleKCover)))
	mux.Handle("POST /v1/query/interior", s.instrument("interior", s.auth(s.handleInterior)))
	mux.Handle("POST /v1/query/batch", s.instrument("batch", s.auth(s.handleBatch)))
	mux.Handle("GET /v1/budget", s.instrument("budget", s.auth(s.handleBudget)))
	// The scrape itself is not instrumented — it would count itself as
	// an in-flight request on every reading of the gauge.
	mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	// Trace retrieval is uninstrumented for the same reason: fetching a
	// trace must not mint one. Span trees carry stage names, durations and
	// operation counts only, and IDs are unguessable 128-bit values, so the
	// endpoint is open like /metrics.
	mux.Handle("GET /v1/trace/{id}", http.HandlerFunc(s.handleTrace))
	mux.Handle("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	}))
	return mux
}

// statusRecorder captures the status code a handler wrote so the
// metrics middleware can label the request.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument is the observability middleware: in-flight gauge,
// per-endpoint request counter and latency histogram, plus a trace per
// request — every daemon query runs traced, the trace ID is returned in
// the X-Trace-Id response header, the span tree is retained for
// GET /v1/trace/{id}, and the finished query is logged (Warn with
// slow=true past the slow-query threshold). Traces never touch the query
// rng, so traced daemon releases are bit-identical to library ones.
func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.inFlight.Add(1)
		start := time.Now()
		tr := obs.NewTrace()
		r = r.WithContext(obs.ContextWith(r.Context(), tr))
		w.Header().Set("X-Trace-Id", tr.ID().String())
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.met.inFlight.Add(-1)
		d := time.Since(start)
		s.met.observe(endpoint, rec.code, d)
		s.traces.Add(tr)
		s.log.Query(tr.ID(), endpoint, d, "code", rec.code)
	})
}

// auth resolves the API key (Authorization: Bearer … or X-API-Key) to a
// principal and stores it in the request context, where the ledger
// admitter picks it up at reservation time.
func (s *Server) auth(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("X-API-Key")
		if key == "" {
			if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
				key = strings.TrimPrefix(h, "Bearer ")
			}
		}
		principal, ok := s.byKey[key]
		if !ok {
			writeError(w, http.StatusUnauthorized, "unauthorized", "missing or unknown API key", nil)
			return
		}
		next.ServeHTTP(w, r.WithContext(WithPrincipal(r.Context(), principal)))
	})
}

// queryRequest is the JSON body shared by the query endpoints; each
// endpoint reads the subset of fields it defines.
type queryRequest struct {
	Dataset    string  `json:"dataset"`
	T          int     `json:"t,omitempty"`
	K          int     `json:"k,omitempty"`
	InnerN     int     `json:"inner_n,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Beta       float64 `json:"beta,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	ZeroSeed   bool    `json:"zero_seed,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

func (q queryRequest) options() privcluster.QueryOptions {
	return privcluster.QueryOptions{
		Epsilon:  q.Epsilon,
		Delta:    q.Delta,
		Beta:     q.Beta,
		Seed:     q.Seed,
		ZeroSeed: q.ZeroSeed,
	}
}

// batchRequest is the body of /v1/query/batch: one dataset, many
// queries, one deadline.
type batchRequest struct {
	Dataset    string         `json:"dataset"`
	Queries    []queryRequest `json:"queries"`
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
}

// clusterJSON is the wire form of a released cluster.
type clusterJSON struct {
	Center     []float64 `json:"center"`
	Radius     float64   `json:"radius"`
	RawRadius  float64   `json:"raw_radius,omitempty"`
	ZeroRadius bool      `json:"zero_radius,omitempty"`
}

func toClusterJSON(c privcluster.Cluster) clusterJSON {
	return clusterJSON{
		Center:     []float64(c.Center),
		Radius:     c.Radius,
		RawRadius:  c.RawRadius,
		ZeroRadius: c.ZeroRadius,
	}
}

// decode parses a JSON request body, rejecting unknown fields.
func decode(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// deadline applies the request's deadline_ms (capped by the config) to
// the query context.
func (s *Server) deadline(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return ctx, func() {}
	}
	d := time.Duration(ms) * time.Millisecond
	if max := s.cfg.maxDeadline(); d > max {
		d = max
	}
	return context.WithTimeout(ctx, d)
}

// dataset resolves a request's dataset name.
func (s *Server) dataset(w http.ResponseWriter, name string) (*privcluster.Dataset, bool) {
	ds, ok := s.datasets[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset", fmt.Sprintf("no dataset named %q", name), nil)
		return nil, false
	}
	return ds, true
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.DeadlineMS)
	defer cancel()
	c, err := ds.FindCluster(ctx, req.T, req.options())
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toClusterJSON(c))
}

func (s *Server) handleKCover(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.DeadlineMS)
	defer cancel()
	cs, err := ds.FindClusters(ctx, req.K, req.T, req.options())
	if err != nil {
		writeQueryError(w, err)
		return
	}
	out := make([]clusterJSON, len(cs))
	for i, c := range cs {
		out[i] = toClusterJSON(c)
	}
	writeJSON(w, http.StatusOK, map[string]any{"clusters": out})
}

func (s *Server) handleInterior(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.DeadlineMS)
	defer cancel()
	p, err := ds.InteriorPoint(ctx, req.InnerN, req.options())
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"point": p})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	ds, ok := s.dataset(w, req.Dataset)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.DeadlineMS)
	defer cancel()
	queries := make([]privcluster.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = privcluster.Query{T: q.T, K: q.K, Opts: q.options()}
	}
	results := ds.FindClustersBatch(ctx, queries)
	type batchResult struct {
		Clusters []clusterJSON  `json:"clusters,omitempty"`
		Error    *errorEnvelope `json:"error,omitempty"`
	}
	out := make([]batchResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			env := queryErrorEnvelope(res.Err)
			out[i] = batchResult{Error: &env}
			continue
		}
		cs := make([]clusterJSON, len(res.Clusters))
		for j, c := range res.Clusters {
			cs[j] = toClusterJSON(c)
		}
		out[i] = batchResult{Clusters: cs}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

// handleBudget reports the authenticated principal's durable balance.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	principal, _ := PrincipalFrom(r.Context())
	bal, _ := s.led.Balance(principal)
	cost := func(c ledger.Cost) map[string]float64 {
		return map[string]float64{"epsilon": c.Epsilon, "delta": c.Delta}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"principal": principal,
		"granted":   cost(bal.Granted),
		"spent":     cost(bal.Spent),
		"reserved":  cost(bal.Reserved),
		"remaining": cost(bal.Remaining()),
	})
}

// budgetRows reads every principal's durable balance for the budget
// gauges; it runs per scrape via the registry scrape func.
func (s *Server) budgetRows() []budgetRow {
	var rows []budgetRow
	for _, name := range s.led.Principals() {
		bal, ok := s.led.Balance(name)
		if !ok {
			continue
		}
		rows = append(rows, budgetRow{
			Principal: name,
			Granted:   [2]float64{bal.Granted.Epsilon, bal.Granted.Delta},
			Spent:     [2]float64{bal.Spent.Epsilon, bal.Spent.Delta},
			Reserved:  [2]float64{bal.Reserved.Epsilon, bal.Reserved.Delta},
		})
	}
	return rows
}

// handleMetrics renders the daemon's own registry (privclusterd_*
// families plus the budget scrape func) followed by the process-wide
// library registry (privcluster_* stage histograms, cache and replica
// counters). The name prefixes are disjoint so the concatenation is a
// valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WriteText(w)
	obs.Default.WriteText(w)
}

// handleTrace returns a retained query's span tree by trace ID (the
// X-Trace-Id response header of the query, or the span's own ID from a
// client-side trace). The ring keeps the last 256 queries; older or
// unknown IDs are a 404, indistinguishable from never-existed.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	tr := s.traces.Get(id)
	if tr == nil {
		writeError(w, http.StatusNotFound, "unknown_trace", fmt.Sprintf("no retained trace %s", id), nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id": id.String(),
		"spans":    tr.Spans(),
	})
}

// errorEnvelope is the typed JSON error body: a stable machine-readable
// code plus the human message, with budget refusals carrying the full
// accounting so a client can decide what it can still afford.
type errorEnvelope struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Budget  *budgetDetails `json:"budget,omitempty"`
}

type budgetDetails struct {
	Total     [2]float64 `json:"total"`
	Spent     [2]float64 `json:"spent"`
	Requested [2]float64 `json:"requested"`
	Remaining [2]float64 `json:"remaining"`
}

// queryErrorEnvelope maps a query error onto its typed envelope.
func queryErrorEnvelope(err error) errorEnvelope {
	var be *privcluster.BudgetError
	switch {
	case errors.As(err, &be):
		rem := be.Remaining()
		return errorEnvelope{
			Code:    "budget_exhausted",
			Message: err.Error(),
			Budget: &budgetDetails{
				Total:     [2]float64{be.Total.Epsilon, be.Total.Delta},
				Spent:     [2]float64{be.Spent.Epsilon, be.Spent.Delta},
				Requested: [2]float64{be.Requested.Epsilon, be.Requested.Delta},
				Remaining: [2]float64{rem.Epsilon, rem.Delta},
			},
		}
	case errors.Is(err, privcluster.ErrInfeasible):
		return errorEnvelope{Code: "infeasible", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return errorEnvelope{Code: "deadline", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return errorEnvelope{Code: "canceled", Message: err.Error()}
	case errors.Is(err, privcluster.ErrClosed):
		return errorEnvelope{Code: "shutting_down", Message: err.Error()}
	default:
		// Library errors not matched above are parameter rejections
		// (invalid ε/t/k …) — the caller's fault. Anything else (a remote
		// shard down, an I/O failure) is the server's.
		if strings.HasPrefix(err.Error(), "privcluster:") {
			return errorEnvelope{Code: "bad_request", Message: err.Error()}
		}
		return errorEnvelope{Code: "internal", Message: err.Error()}
	}
}

// statusFor maps an envelope code to its HTTP status.
var statusFor = map[string]int{
	"budget_exhausted": http.StatusTooManyRequests,
	"infeasible":       http.StatusUnprocessableEntity,
	"deadline":         http.StatusGatewayTimeout,
	"canceled":         499, // client closed request (nginx convention)
	"shutting_down":    http.StatusServiceUnavailable,
	"bad_request":      http.StatusBadRequest,
}

// writeQueryError writes a query error as its typed envelope with the
// matching status code.
func writeQueryError(w http.ResponseWriter, err error) {
	env := queryErrorEnvelope(err)
	status, ok := statusFor[env.Code]
	if !ok {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, map[string]any{"error": env})
}

// writeError writes a non-query error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string, budget *budgetDetails) {
	writeJSON(w, status, map[string]any{"error": errorEnvelope{Code: code, Message: msg, Budget: budget}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
