package transport

import (
	"context"
	"fmt"
	"time"

	"privcluster/internal/geometry"
)

// ReplicaOptions configures the replicated dialer: the per-connection
// client options plus the failover knobs geometry.ReplicatedShard takes.
type ReplicaOptions struct {
	// Options configures each replica's RemoteShard connection (dial
	// override, dial timeout, per-connection transport retries). Mutable
	// must be false: mutable sessions are
	// connection-scoped and non-idempotent, so they cannot be replicated —
	// the placement layer refuses multi-replica mutable partitions
	// upstream.
	Options
	// HedgeDelay enables hedged reads (see
	// geometry.ReplicatedShardOptions.HedgeDelay). 0 disables.
	HedgeDelay time.Duration
	// ProbeInterval is the down-replica re-probe cadence (0 = default,
	// negative disables; see geometry.ReplicatedShardOptions).
	ProbeInterval time.Duration
}

// ReplicatedShardDialer adapts a placement — one replica address set per
// shard partition — to the geometry.ShardDialer seam: partition s is
// served by the replica set parts[s]. Every replica of a partition is
// dialed with the same ShardConfig, so its answers are bit-identical to
// its siblings' and failover/hedging cannot perturb releases.
//
// This dialer is the one way an immutable index reaches remote shards. A
// single-replica partition is served by a plain DialShard — including the
// client's transparent reconnect-and-retry — with no replication wrapper,
// no prober, and no extra goroutines. Multi-replica partitions wrap their
// RemoteShards in a geometry.ReplicatedShard whose liveness probe is a raw
// dial (connection established = alive; no handshake, so a probe costs
// one round trip and no point-set shipping).
func ReplicatedShardDialer(parts [][]string, opts ReplicaOptions) geometry.ShardDialer {
	// DialShard applies the option defaults itself (applying them twice
	// would turn a negative Retries, meaning 0, into the default 1); the
	// defaulted copy only supplies the probe's raw dial.
	conn := opts.Options
	probeDial := conn.withDefaults().Dial
	return func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
		addrs := parts[shard%len(parts)]
		if len(addrs) == 0 {
			return nil, &Error{Op: "dial", Addr: fmt.Sprintf("partition %d", shard), Kind: KindDial,
				Err: fmt.Errorf("empty replica set")}
		}
		if len(addrs) == 1 {
			return DialShard(ctx, addrs[0], cfg, conn)
		}
		dialers := make([]geometry.ReplicaDialer, len(addrs))
		for i, addr := range addrs {
			dialers[i] = func(ctx context.Context) (geometry.ShardBackend, error) {
				return DialShard(ctx, addr, cfg, conn)
			}
		}
		return geometry.NewReplicatedShard(ctx, dialers, geometry.ReplicatedShardOptions{
			HedgeDelay:    opts.HedgeDelay,
			ProbeInterval: opts.ProbeInterval,
			Probe: func(ctx context.Context, replica int) error {
				c, err := probeDial(ctx, addrs[replica])
				if err != nil {
					return err
				}
				return c.Close()
			},
		})
	}
}
