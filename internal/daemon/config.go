// Package daemon is the serving layer behind cmd/privclusterd: an
// HTTP/JSON front end over prepared privcluster.Dataset handles, with
// every query's (ε, δ) cost admitted through a durable per-principal
// ledger (internal/ledger) instead of the handles' own in-memory
// budgets. The package is importable — examples/daemon and the tests
// run the same Server the binary does.
//
// The trust boundary matches the rest of the module: the daemon holds
// raw data points and hands out differentially private releases; the
// privacy guarantee covers the released outputs, not server memory or
// transport. Deploy it inside the data's trust domain and protect the
// links (TLS termination in front, private networks). API keys gate
// who may spend which budget; they are not a cryptographic identity.
package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"privcluster"
)

// Config is the daemon configuration, normally loaded from a JSON file
// (see LoadConfig). The zero values of optional fields mean their
// documented defaults.
type Config struct {
	// Listen is the TCP address to serve on, e.g. ":7610" or
	// "127.0.0.1:0" (0 picks a free port; the bound address is printed).
	Listen string `json:"listen"`
	// LedgerDir is the durable budget ledger's directory. The daemon
	// takes the ledger's exclusive process lock for its lifetime: a
	// second daemon pointed at the same directory refuses to start, which
	// is exactly what makes over-spending across processes impossible.
	LedgerDir string `json:"ledger_dir"`
	// AdminListen, when set, binds a second TCP address serving the
	// operational endpoints that do not belong on the query port:
	// net/http/pprof profiling under /debug/pprof/. Bind it to a
	// loopback or otherwise access-controlled address — profiles expose
	// process internals (never dataset values, but plenty of structure).
	// Empty (the default) disables the admin listener entirely.
	AdminListen string `json:"admin_listen,omitempty"`
	// MaxDeadlineMS caps the per-request deadline_ms a client may ask
	// for (default 60000). Requests without deadline_ms run under the
	// connection's lifetime only.
	MaxDeadlineMS int `json:"max_deadline_ms,omitempty"`
	// SlowQueryMS is the duration at or above which a finished query is
	// logged at Warn with slow=true instead of Info (default 1000; negative
	// disables the escalation).
	SlowQueryMS int `json:"slow_query_ms,omitempty"`
	// Datasets are the named datasets the daemon serves.
	Datasets []DatasetConfig `json:"datasets"`
	// Principals are the API-key identities allowed to query, each with
	// its total (ε, δ) grant in the ledger.
	Principals []PrincipalConfig `json:"principals"`
}

// DatasetConfig describes one served dataset: where its points come
// from and the preparation options — the subset of
// privcluster.DatasetOptions that makes sense server-side.
type DatasetConfig struct {
	// Name is the handle clients query by ("dataset" in requests).
	Name string `json:"name"`
	// CSV is the points file: one point per line, comma-separated
	// coordinates, #-comments and blank lines skipped.
	CSV string `json:"csv"`
	// Grid is |X| (default 2¹⁶).
	Grid int64 `json:"grid,omitempty"`
	// Min, Max are the data domain bounds (both zero = unit cube).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Workers mirrors DatasetOptions.
	Workers int `json:"workers,omitempty"`
	// Placement is the replicated shard-server topology in the
	// privcluster placement schema (the format cmd/shardctl generates:
	// "partitions" plus optional "retries", "hedge_delay_ms",
	// "probe_interval_ms", "dial_timeout_ms"), inlined as an object.
	Placement json.RawMessage `json:"placement,omitempty"`
}

// PrincipalConfig is one API-key identity and its total budget grant.
// On startup the daemon raises the principal's ledger grant up to
// (Epsilon, Delta) if the durable grant is below it — it never lowers a
// grant and never re-grants what a previous run already granted, so
// restarting a daemon cannot mint fresh budget.
type PrincipalConfig struct {
	Name    string  `json:"name"`
	APIKey  string  `json:"api_key"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// placement decodes the inlined placement block through the same parser
// cmd/shardctl and LoadPlacement use (nil when the block is absent).
func (d DatasetConfig) placement() (*privcluster.Placement, error) {
	if len(d.Placement) == 0 {
		return nil, nil
	}
	return privcluster.ParsePlacement(d.Placement)
}

// maxDeadline resolves the configured deadline cap.
func (c Config) maxDeadline() time.Duration {
	if c.MaxDeadlineMS > 0 {
		return time.Duration(c.MaxDeadlineMS) * time.Millisecond
	}
	return 60 * time.Second
}

// slowQuery resolves the slow-query log threshold.
func (c Config) slowQuery() time.Duration {
	switch {
	case c.SlowQueryMS > 0:
		return time.Duration(c.SlowQueryMS) * time.Millisecond
	case c.SlowQueryMS < 0:
		return 0
	default:
		return time.Second
	}
}

// Validate rejects a configuration the daemon could not serve.
func (c Config) Validate() error {
	if c.Listen == "" {
		return fmt.Errorf("daemon: config needs a listen address")
	}
	if c.LedgerDir == "" {
		return fmt.Errorf("daemon: config needs a ledger_dir")
	}
	if len(c.Datasets) == 0 {
		return fmt.Errorf("daemon: config serves no datasets")
	}
	seen := make(map[string]bool)
	for i, d := range c.Datasets {
		if d.Name == "" {
			return fmt.Errorf("daemon: dataset %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("daemon: duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
		if d.CSV == "" {
			return fmt.Errorf("daemon: dataset %q has no csv path", d.Name)
		}
		if _, err := d.placement(); err != nil {
			return fmt.Errorf("daemon: dataset %q: %w", d.Name, err)
		}
	}
	if len(c.Principals) == 0 {
		return fmt.Errorf("daemon: config has no principals — nobody could query")
	}
	names, keys := make(map[string]bool), make(map[string]bool)
	for i, p := range c.Principals {
		if p.Name == "" {
			return fmt.Errorf("daemon: principal %d has no name", i)
		}
		if strings.ContainsAny(p.Name, "\"\n") {
			return fmt.Errorf("daemon: principal name %q contains quote or newline (breaks metric labels)", p.Name)
		}
		if names[p.Name] {
			return fmt.Errorf("daemon: duplicate principal %q", p.Name)
		}
		names[p.Name] = true
		if p.APIKey == "" {
			return fmt.Errorf("daemon: principal %q has no api_key", p.Name)
		}
		if keys[p.APIKey] {
			return fmt.Errorf("daemon: principal %q reuses another principal's api_key", p.Name)
		}
		keys[p.APIKey] = true
		if p.Epsilon < 0 || p.Delta < 0 || p.Delta >= 1 {
			return fmt.Errorf("daemon: principal %q grant (ε=%v, δ=%v) out of range", p.Name, p.Epsilon, p.Delta)
		}
	}
	return nil
}

// LoadConfig reads and validates a JSON configuration file. Unknown
// fields are rejected — a typoed knob should fail loudly, not silently
// serve with a default.
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("daemon: %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
