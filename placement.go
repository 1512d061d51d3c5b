package privcluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"time"
)

// Placement describes how a dataset's shard partitions map onto shard
// servers: one replica address set per partition, plus the connection and
// failover knobs. It replaces the flat DatasetOptions.RemoteShards +
// RemoteDial pair (which remain as deprecated wrappers constructing a
// trivial single-replica Placement).
//
// Every replica of a partition must serve the same data — each is dialed
// with the identical shard config, so its bulk-count answers are
// bit-identical to its siblings' and failover or hedging cannot perturb
// releases (see the "Replication and failover" section of the package
// documentation). Single-replica partitions behave exactly like the old
// RemoteShards path: a plain connection with the client's transparent
// reconnect, no replication machinery.
//
// Only Partitions is part of the handle's index-cache identity; Dial and
// the knobs are transport mechanics (changing them on a fresh handle is
// fine, but they must be fixed for one handle's lifetime, like every
// other DatasetOptions field).
type Placement struct {
	// Partitions lists the replica address sets: partition p of the
	// sharded index is served by Partitions[p], trying its replicas in
	// order (first address = preferred replica).
	Partitions [][]string
	// Dial overrides how server connections are established (nil = TCP),
	// for loopback transports in tests and demos.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Retries is the per-connection transport retry budget of each
	// replica's client (reconnect + re-send on a broken connection; see
	// the transport options). 0 means the default of 1; negative means 0.
	// Replica failover is on top of — not instead of — these retries.
	Retries int
	// HedgeDelay opts into hedged reads on multi-replica partitions: a
	// bulk call unanswered after this delay is re-issued to the next
	// replica and the first answer wins. 0 disables hedging. Hedging
	// trades duplicate shard compute for tail latency and never changes
	// releases (the loser's identical answer is discarded, not summed).
	HedgeDelay time.Duration
	// ProbeInterval is how often replicas marked down are re-probed in
	// the background (0 = the 2s default; negative disables probing).
	ProbeInterval time.Duration
	// DialTimeout caps connection establishment plus handshake when the
	// calling context has no earlier deadline (0 = the 10s default).
	DialTimeout time.Duration
}

// validate rejects placements that cannot describe a deployment.
func (p *Placement) validate() error {
	if len(p.Partitions) == 0 {
		return fmt.Errorf("privcluster: placement with no partitions")
	}
	for pi, reps := range p.Partitions {
		if len(reps) == 0 {
			return fmt.Errorf("privcluster: placement partition %d has no replicas", pi)
		}
		seen := make(map[string]bool, len(reps))
		for ri, a := range reps {
			if a == "" {
				return fmt.Errorf("privcluster: placement partition %d replica %d is empty", pi, ri)
			}
			if seen[a] {
				return fmt.Errorf("privcluster: placement partition %d lists replica %q twice", pi, a)
			}
			seen[a] = true
		}
	}
	return nil
}

// singleReplica reports whether every partition has exactly one replica —
// the shape mutable (epoch-session) handles require, and the shape the
// deprecated RemoteShards wrapper produces.
func (p *Placement) singleReplica() bool {
	for _, reps := range p.Partitions {
		if len(reps) != 1 {
			return false
		}
	}
	return true
}

// flatten returns the one address per partition of a single-replica
// placement.
func (p *Placement) flatten() []string {
	addrs := make([]string, len(p.Partitions))
	for i, reps := range p.Partitions {
		addrs[i] = reps[0]
	}
	return addrs
}

// cacheKey encodes the partition structure into the index-cache identity.
// Every address travels length-prefixed, so no two distinct placements can
// collide — unlike a separator join, where an address containing the
// separator (or ["a,b"] vs ["a","b"]) is ambiguous. The knobs and Dial
// are deliberately excluded: they change how bytes move, never what index
// is built.
func (p *Placement) cacheKey() string {
	var b strings.Builder
	b.WriteByte('p')
	b.WriteString(strconv.Itoa(len(p.Partitions)))
	for _, reps := range p.Partitions {
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(len(reps)))
		for _, a := range reps {
			b.WriteByte('|')
			b.WriteString(strconv.Itoa(len(a)))
			b.WriteByte(':')
			b.WriteString(a)
		}
	}
	return b.String()
}

// placementJSON is the JSON schema of a placement file — the durations as
// integer milliseconds, so configs stay toolable without Go duration
// syntax:
//
//	{
//	  "partitions": [["host-a:9001", "host-b:9001"], ["host-c:9001"]],
//	  "retries": 1,
//	  "hedge_delay_ms": 20,
//	  "probe_interval_ms": 2000,
//	  "dial_timeout_ms": 10000
//	}
//
// Omitted knobs take their in-process defaults; a negative
// probe_interval_ms disables probing. Dial overrides cannot travel in a
// file.
type placementJSON struct {
	Partitions      [][]string `json:"partitions"`
	Retries         int        `json:"retries,omitempty"`
	HedgeDelayMS    int64      `json:"hedge_delay_ms,omitempty"`
	ProbeIntervalMS int64      `json:"probe_interval_ms,omitempty"`
	DialTimeoutMS   int64      `json:"dial_timeout_ms,omitempty"`
}

// ParsePlacement decodes and validates the JSON placement schema (see
// LoadPlacement). Unknown fields are rejected — a typo in an operational
// config must fail loudly, not silently default — and so is any *_ms value
// too large to convert to a time.Duration.
func ParsePlacement(data []byte) (*Placement, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pj placementJSON
	if err := dec.Decode(&pj); err != nil {
		return nil, fmt.Errorf("privcluster: parsing placement: %w", err)
	}
	p := &Placement{Partitions: pj.Partitions, Retries: pj.Retries}
	for _, f := range []struct {
		name string
		ms   int64
		dst  *time.Duration
	}{
		{"hedge_delay_ms", pj.HedgeDelayMS, &p.HedgeDelay},
		{"probe_interval_ms", pj.ProbeIntervalMS, &p.ProbeInterval},
		{"dial_timeout_ms", pj.DialTimeoutMS, &p.DialTimeout},
	} {
		if f.ms > math.MaxInt64/int64(time.Millisecond) || f.ms < math.MinInt64/int64(time.Millisecond) {
			return nil, fmt.Errorf("privcluster: placement %s %d overflows a duration", f.name, f.ms)
		}
		*f.dst = time.Duration(f.ms) * time.Millisecond
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadPlacement reads a JSON placement file (the format cmd/shardctl
// generates and validates; see ParsePlacement for the schema).
func LoadPlacement(path string) (*Placement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("privcluster: reading placement: %w", err)
	}
	return ParsePlacement(data)
}

// EncodeJSON renders the placement in the file schema LoadPlacement reads
// (Dial, which cannot travel in a file, is dropped). cmd/shardctl uses it
// to generate placement files.
func (p *Placement) EncodeJSON() ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(placementJSON{
		Partitions:      p.Partitions,
		Retries:         p.Retries,
		HedgeDelayMS:    int64(p.HedgeDelay / time.Millisecond),
		ProbeIntervalMS: int64(p.ProbeInterval / time.Millisecond),
		DialTimeoutMS:   int64(p.DialTimeout / time.Millisecond),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
