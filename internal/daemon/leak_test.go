package daemon

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"privcluster/internal/obs"
)

// TestInstrumentationLeaksNoData is the tracing tentpole's hard privacy
// invariant, tested end to end: after a traced query over a dataset whose
// every coordinate is a distinctive 9-decimal value, none of those
// coordinate strings appear on any observability surface — the /metrics
// exposition (daemon and library registries), the structured query log,
// or the retained span tree served by /v1/trace/{id}. Instrumentation
// carries durations and operation counts only; the released center is the
// query response's business, never the telemetry's.
func TestInstrumentationLeaksNoData(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "points.csv")
	rng := rand.New(rand.NewSource(1337))
	var b strings.Builder
	var markers []string
	coord := func(x float64) string {
		s := strconv.FormatFloat(x, 'f', 9, 64)
		markers = append(markers, s)
		return s
	}
	for i := 0; i < 500; i++ {
		b.WriteString(coord(0.5+0.02*(rng.Float64()-0.5)) + "," + coord(0.5+0.02*(rng.Float64()-0.5)) + "\n")
	}
	for i := 0; i < 300; i++ {
		b.WriteString(coord(rng.Float64()) + "," + coord(rng.Float64()) + "\n")
	}
	if err := os.WriteFile(csv, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Listen:    "127.0.0.1:0",
		LedgerDir: filepath.Join(dir, "ledger"),
		Datasets:  []DatasetConfig{{Name: "planted", CSV: csv, Grid: 1024}},
		Principals: []PrincipalConfig{
			{Name: "alice", APIKey: "sekrit", Epsilon: 9, Delta: 0.11},
		},
	}
	s := startServer(t, cfg)
	var logBuf bytes.Buffer
	s.log = obs.NewLogger(&logBuf, 0, 0) // capture the query log

	raw, _ := json.Marshal(clusterQuery)
	req, err := http.NewRequest("POST", "http://"+s.Addr()+"/v1/query/cluster", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("query response carries no X-Trace-Id")
	}

	code, metrics := get(t, s.Addr(), "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	code, traceJSON := get(t, s.Addr(), "/v1/trace/"+traceID, "")
	if code != http.StatusOK {
		t.Fatalf("/v1/trace/%s status %d: %s", traceID, code, traceJSON)
	}
	if !strings.Contains(traceJSON, `"name":"query/cluster"`) {
		t.Fatalf("trace JSON has no query/cluster span:\n%s", traceJSON)
	}

	// The cell-level cache and base-pair memo counters expose their two
	// result labels each and nothing else: levels and count blocks are
	// counted, never described.
	for name, want := range map[string][]string{
		"privcluster_cell_level_total": {
			`privcluster_cell_level_total{result="build"}`,
			`privcluster_cell_level_total{result="hit"}`,
		},
		"privcluster_pair_memo_total": {
			`privcluster_pair_memo_total{result="fill"}`,
			`privcluster_pair_memo_total{result="hit"}`,
		},
	} {
		var series []string
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, name+"{") {
				series = append(series, line[:strings.IndexByte(line, '}')+1])
			}
		}
		if !slices.Equal(series, want) {
			t.Errorf("%s series = %q, want %q", name, series, want)
		}
	}

	surfaces := map[string]string{
		"/metrics":  metrics,
		"query log": logBuf.String(),
		"trace":     traceJSON,
	}
	for surface, text := range surfaces {
		if text == "" {
			t.Fatalf("%s surface is empty — nothing was exercised", surface)
		}
		for _, m := range markers {
			if strings.Contains(text, m) {
				t.Errorf("%s leaks dataset coordinate %s", surface, m)
			}
		}
	}
}
