package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privcluster/internal/ledger"
	"privcluster/internal/transport"
)

// writeClusterCSV writes a 2-D planted-cluster dataset in the module's
// feasible test regime (grid 1024, query ε=4, δ=0.05, t=400): 500
// points within 0.02 of (0.5, 0.5) and 300 uniform.
func writeClusterCSV(t *testing.T, path string) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	b.WriteString("# planted cluster test data\n")
	for i := 0; i < 500; i++ {
		b.WriteString(fmt.Sprintf("%g,%g\n", 0.5+0.02*(rng.Float64()-0.5), 0.5+0.02*(rng.Float64()-0.5)))
	}
	for i := 0; i < 300; i++ {
		b.WriteString(fmt.Sprintf("%g,%g\n", rng.Float64(), rng.Float64()))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeValuesCSV writes a 1-D dataset for InteriorPoint: 2400 values in
// [0.4, 0.6] (innerN=1600 is feasible at ε=4, δ=0.05).
func writeValuesCSV(t *testing.T, path string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	for i := 0; i < 2400; i++ {
		b.WriteString(fmt.Sprintf("%g\n", 0.4+0.2*rng.Float64()))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// testConfig builds a config serving the planted-cluster dataset to one
// principal ("alice", key "sekrit") whose grant admits exactly two
// (ε=4, δ=0.05) queries.
func testConfig(t *testing.T, dir string) Config {
	t.Helper()
	csv := filepath.Join(dir, "points.csv")
	writeClusterCSV(t, csv)
	return Config{
		Listen:    "127.0.0.1:0",
		LedgerDir: filepath.Join(dir, "ledger"),
		Datasets:  []DatasetConfig{{Name: "planted", CSV: csv, Grid: 1024}},
		Principals: []PrincipalConfig{
			{Name: "alice", APIKey: "sekrit", Epsilon: 9, Delta: 0.11},
		},
	}
}

// startServer constructs and starts a Server, registering cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		s.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		s.Close()
	})
	return s
}

// post issues an authenticated JSON POST and decodes the response.
func post(t *testing.T, addr, path, key string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", "http://"+addr+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

// get issues an authenticated GET.
func get(t *testing.T, addr, path, key string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+addr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return resp.StatusCode, b.String()
}

// errorCode extracts the typed code from an error envelope.
func errorCode(t *testing.T, body map[string]json.RawMessage) string {
	t.Helper()
	var env struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body["error"], &env); err != nil {
		t.Fatalf("no error envelope in %v: %v", body, err)
	}
	return env.Code
}

var clusterQuery = queryRequest{
	Dataset: "planted", T: 400, Epsilon: 4, Delta: 0.05, Seed: 7,
}

func TestServerClusterQueryAndBudget(t *testing.T) {
	s := startServer(t, testConfig(t, t.TempDir()))

	code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("query status %d: %v", code, body)
	}
	var radius float64
	if err := json.Unmarshal(body["radius"], &radius); err != nil || radius <= 0 {
		t.Fatalf("released radius %v (err %v)", radius, err)
	}

	// The durable budget moved by exactly the query's cost.
	code, budget := get(t, s.Addr(), "/v1/budget", "sekrit")
	if code != http.StatusOK {
		t.Fatalf("budget status %d", code)
	}
	var spent struct{ Epsilon, Delta float64 }
	if err := json.Unmarshal([]byte(gjson(t, budget, "spent")), &spent); err != nil {
		t.Fatal(err)
	}
	if spent.Epsilon != 4 || spent.Delta != 0.05 {
		t.Fatalf("spent = %+v, want (4, 0.05)", spent)
	}

	// Auth and routing failures are typed.
	if code, body := post(t, s.Addr(), "/v1/query/cluster", "wrong", clusterQuery); code != http.StatusUnauthorized || errorCode(t, body) != "unauthorized" {
		t.Fatalf("bad key: status %d body %v", code, body)
	}
	q := clusterQuery
	q.Dataset = "nope"
	if code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", q); code != http.StatusNotFound || errorCode(t, body) != "unknown_dataset" {
		t.Fatalf("unknown dataset: status %d body %v", code, body)
	}
	q = clusterQuery
	q.T = 0
	if code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", q); code != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
		t.Fatalf("t=0: status %d body %v", code, body)
	}
	// Served datasets have no epochs to pin: at_epoch is an unknown field.
	pinned := map[string]any{"dataset": "planted", "t": 400, "epsilon": 4, "delta": 0.05, "seed": 7, "at_epoch": 1}
	if code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", pinned); code != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
		t.Fatalf("at_epoch: status %d body %v", code, body)
	}
}

// gjson pulls one top-level field out of a JSON object string.
func gjson(t *testing.T, body, field string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	return string(m[field])
}

// TestServerRefusalPersistsAcrossRestart is the durability tentpole's
// end-to-end proof at the HTTP layer: a principal granted exactly two
// queries is refused the third with a typed 429, and after a full
// daemon restart over the same ledger directory the refusal is
// immediate — the restart minted no fresh budget.
func TestServerRefusalPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", clusterQuery); code != http.StatusOK {
			t.Fatalf("query %d: status %d body %v", i, code, body)
		}
	}
	code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", clusterQuery)
	if code != http.StatusTooManyRequests || errorCode(t, body) != "budget_exhausted" {
		t.Fatalf("third query: status %d body %v", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s.Shutdown(ctx)
	cancel()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Second daemon generation over the same ledger directory.
	s2 := startServer(t, cfg)
	code, body = post(t, s2.Addr(), "/v1/query/cluster", "sekrit", clusterQuery)
	if code != http.StatusTooManyRequests || errorCode(t, body) != "budget_exhausted" {
		t.Fatalf("restarted daemon re-admitted an exhausted principal: status %d body %v", code, body)
	}
}

// TestServerSecondProcessRefused: the ledger's exclusive process lock
// makes a second daemon over the same directory fail to start — the
// mechanism that makes jointly over-spending across processes
// impossible.
func TestServerSecondProcessRefused(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	_ = startServer(t, cfg)
	cfg2 := cfg
	cfg2.Listen = "127.0.0.1:0"
	if _, err := New(cfg2); !errors.Is(err, ledger.ErrLocked) {
		t.Fatalf("second daemon on a held ledger: err = %v, want ErrLocked", err)
	}
}

func TestServerInteriorPoint(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "values.csv")
	writeValuesCSV(t, csv)
	cfg := Config{
		Listen:    "127.0.0.1:0",
		LedgerDir: filepath.Join(dir, "ledger"),
		Datasets:  []DatasetConfig{{Name: "values", CSV: csv}},
		Principals: []PrincipalConfig{
			{Name: "bob", APIKey: "k2", Epsilon: 8, Delta: 0.1},
		},
	}
	s := startServer(t, cfg)
	req := queryRequest{Dataset: "values", InnerN: 1600, Epsilon: 4, Delta: 0.05, Seed: 11}
	code, body := post(t, s.Addr(), "/v1/query/interior", "k2", req)
	if code != http.StatusOK {
		t.Fatalf("interior status %d: %v", code, body)
	}
	var p float64
	if err := json.Unmarshal(body["point"], &p); err != nil || p < 0.3 || p > 0.7 {
		t.Fatalf("interior point %v (err %v), want within the data range", p, err)
	}
	// InteriorPoint costs the composed (2ε, 2δ) = the whole grant: a
	// second one must be refused.
	if code, body := post(t, s.Addr(), "/v1/query/interior", "k2", req); code != http.StatusTooManyRequests {
		t.Fatalf("second interior query: status %d body %v", code, body)
	}
}

func TestServerBatchAndMetrics(t *testing.T) {
	s := startServer(t, testConfig(t, t.TempDir()))
	// Three batch queries at (4, 0.05) against a grant of (9, 0.11):
	// exactly two may be admitted.
	batch := batchRequest{
		Dataset: "planted",
		Queries: []queryRequest{
			{T: 400, Epsilon: 4, Delta: 0.05, Seed: 1},
			{T: 400, Epsilon: 4, Delta: 0.05, Seed: 2},
			{T: 400, Epsilon: 4, Delta: 0.05, Seed: 3},
		},
	}
	code, body := post(t, s.Addr(), "/v1/query/batch", "sekrit", batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %v", code, body)
	}
	var results []struct {
		Clusters []clusterJSON  `json:"clusters"`
		Error    *errorEnvelope `json:"error"`
	}
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatal(err)
	}
	admitted, refused := 0, 0
	for _, r := range results {
		switch {
		case r.Error == nil && len(r.Clusters) == 1:
			admitted++
		case r.Error != nil && r.Error.Code == "budget_exhausted":
			refused++
		default:
			t.Fatalf("unexpected batch result: %+v", r)
		}
	}
	if admitted != 2 || refused != 1 {
		t.Fatalf("batch admitted %d, refused %d; want 2 and 1", admitted, refused)
	}

	code, metrics := get(t, s.Addr(), "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`privclusterd_requests_total{endpoint="batch",code="200"} 1`,
		`privclusterd_budget{principal="alice",coord="epsilon",kind="spent"} 8`,
		`privclusterd_budget{principal="alice",coord="epsilon",kind="granted"} 9`,
		"privclusterd_request_seconds_bucket",
		"privclusterd_in_flight 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	if code, _ := get(t, s.Addr(), "/healthz", ""); code != http.StatusOK {
		t.Errorf("/healthz status %d", code)
	}
}

func TestServerDeadline(t *testing.T) {
	s := startServer(t, testConfig(t, t.TempDir()))
	q := clusterQuery
	q.DeadlineMS = 1
	code, body := post(t, s.Addr(), "/v1/query/cluster", "sekrit", q)
	if code != http.StatusGatewayTimeout || errorCode(t, body) != "deadline" {
		t.Fatalf("1ms deadline: status %d body %v", code, body)
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"listen": ":0", "legder_dir": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("typoed config field accepted")
	}
}

// TestLoadConfigRejectsRemoteShards: the flat remote_shards list is gone
// (its replacement is a placement block of single-replica partitions), so
// is the local shards count (a dataset without a placement builds one
// in-process index), and so is the mutable switch (the daemon has no
// mutation route, so a served dataset never leaves epoch 1); a config
// still naming any of them fails to load instead of silently serving the
// dataset some other way.
func TestLoadConfigRejectsRemoteShards(t *testing.T) {
	dir := t.TempDir()
	raw, err := json.Marshal(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for key, val := range map[string]string{"remote_shards": `["a:1","b:2"]`, "shards": `2`, "mutable": `true`} {
		old := bytes.Replace(raw, []byte(`"name":"planted",`), []byte(`"name":"planted","`+key+`":`+val+`,`), 1)
		if bytes.Equal(old, raw) {
			t.Fatal("test config has no planted dataset to extend")
		}
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Fatalf("%s config: err = %v, want an unknown-field error naming it", key, err)
		}
	}
}

// FuzzLoadConfig drives LoadConfig over arbitrary files: it must never
// panic, and whatever it accepts must survive a marshal → load → marshal
// round trip unchanged (seed corpus under testdata/fuzz/, including a
// placement config and a rejected remote_shards one).
func FuzzLoadConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadConfig(path)
		if err != nil {
			return
		}
		first, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadConfig(path)
		if err != nil {
			t.Fatalf("marshalled config does not load: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("reloaded config does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the config:\n%s\n%s", first, second)
		}
	})
}

// startTCPShardServers brings up wire-protocol shard servers on real TCP
// for the placement config block (file-borne placements cannot carry a
// Dial override, so the daemon dials TCP).
func startTCPShardServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		srv := transport.NewServer(transport.ServerOptions{})
		go srv.Serve(l)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return addrs
}

// TestServerPlacementDataset: a dataset served through the config's
// placement block (two shard partitions × two replicas over real TCP)
// releases the same seeded cluster as a single-replica placement over the
// same two partitions — the daemon layer of the placement equivalence
// chain.
func TestServerPlacementDataset(t *testing.T) {
	addrs := startTCPShardServers(t, 4)

	single := testConfig(t, t.TempDir())
	single.Datasets[0].Placement = json.RawMessage(fmt.Sprintf(`{"partitions": [[%q], [%q]]}`, addrs[0], addrs[2]))
	singleSrv := startServer(t, single)
	code, want := post(t, singleSrv.Addr(), "/v1/query/cluster", "sekrit", clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("single-replica placement query status %d: %v", code, want)
	}

	cfg := testConfig(t, t.TempDir())
	placement, err := json.Marshal(map[string]any{
		"partitions": [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Datasets[0].Placement = placement
	if err := cfg.Validate(); err != nil {
		t.Fatalf("placement config rejected: %v", err)
	}
	s := startServer(t, cfg)
	code, got := post(t, s.Addr(), "/v1/query/cluster", "sekrit", clusterQuery)
	if code != http.StatusOK {
		t.Fatalf("placement query status %d: %v", code, got)
	}
	for _, field := range []string{"center", "radius", "raw_radius"} {
		if !bytes.Equal(got[field], want[field]) {
			t.Errorf("2×2 placement release %s = %s, single-replica %s", field, got[field], want[field])
		}
	}
}

// TestConfigPlacementValidation: the placement block is validated at
// config load.
func TestConfigPlacementValidation(t *testing.T) {
	base := testConfig(t, t.TempDir())
	bad := base
	bad.Datasets = []DatasetConfig{base.Datasets[0]}
	bad.Datasets[0].Placement = json.RawMessage(`{"partitions": [[]]}`)
	if err := bad.Validate(); err == nil {
		t.Error("empty partition accepted")
	}
	typo := base
	typo.Datasets = []DatasetConfig{base.Datasets[0]}
	typo.Datasets[0].Placement = json.RawMessage(`{"partitions": [["a:1"]], "hedge_ms": 5}`)
	if err := typo.Validate(); err == nil {
		t.Error("unknown placement field accepted")
	}
}
