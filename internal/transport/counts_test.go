package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"privcluster/internal/geometry"
)

// countsPayload is the msgCounts payload the server writes for counts.
func countsPayload(counts []int32) []byte { return encodeCounts(nil, counts) }

// FuzzCountsFrame feeds the client's response decoders the payloads a
// hostile server can send: counts decoded into a caller-sized buffer, an
// EPOCH payload and an ERROR payload. A counts payload must fill exactly
// len(out) slots with the values it carries or fail with out untouched;
// no decoder may panic, and an error payload always becomes a typed error
// (seed corpus under testdata/fuzz/).
func FuzzCountsFrame(f *testing.F) {
	const untouched = -7
	c := &RemoteShard{addr: "fuzz"}
	f.Fuzz(func(t *testing.T, payload []byte, slots uint16) {
		out := make([]int32, slots)
		for i := range out {
			out[i] = untouched
		}
		if err := decodeCounts(payload, out); err != nil {
			for i, v := range out {
				if v != untouched {
					t.Fatalf("rejected payload (%v) wrote slot %d", err, i)
				}
			}
		} else {
			if len(payload) != 4+4*len(out) || binary.BigEndian.Uint32(payload) != uint32(slots) {
				t.Fatalf("accepted a %d-byte payload into %d slots", len(payload), slots)
			}
			for i, v := range out {
				if want := int32(binary.BigEndian.Uint32(payload[4+4*i:])); v != want {
					t.Fatalf("slot %d = %d, payload carries %d", i, v, want)
				}
			}
		}
		if epoch, rows, err := decodeEpoch(payload); err == nil {
			if len(payload) != 12 || epoch != binary.BigEndian.Uint64(payload) || rows != int(binary.BigEndian.Uint32(payload[8:])) {
				t.Fatalf("epoch payload %x decoded to (%d, %d)", payload, epoch, rows)
			}
		}
		var te *Error
		if err := c.remoteError("fuzz", payload); !errors.As(err, &te) {
			t.Fatalf("error payload %x decoded to %v, want a *transport.Error", payload, err)
		}
	})
}

// TestCountsSlotRule: a COUNTS response is accepted only when it carries
// exactly one slot per slot of the caller's buffer — the session's owned
// rows, here half of the global rows — and nothing else. A short, long,
// global-length, truncated or trailing-byte response fails as a protocol
// error before anything is written into the buffer — at the frozen epoch
// and at a pinned one alike — and leaves the stream clean for the next
// round trip.
func TestCountsSlotRule(t *testing.T) {
	ctx := context.Background()
	pts := testPoints(t, 41, 50, 2)
	n := len(pts)
	var owned []int32
	for i := 0; i < n; i += 2 {
		owned = append(owned, int32(i))
	}
	m := len(owned)
	good := make([]int32, m)
	for k := range good {
		good[k] = int32(k % 5)
	}
	cfg := geometry.ShardConfig{Points: frameOf(t, pts), Owned: owned, Cell: testCellOptions(2)}
	full := countsPayload(good)
	bad := []struct {
		name    string
		payload []byte
	}{
		{"short", countsPayload(good[:m-1])},
		{"global", countsPayload(make([]int32, n))},
		{"long", countsPayload(append(slices.Clone(good), 1))},
		{"truncated", full[:len(full)-4]},
		{"trailing", append(slices.Clone(full), 0)},
	}
	for _, mutable := range []bool{false, true} {
		epoch := geometry.EpochFrozen
		if mutable {
			epoch = 3
		}
		for _, tc := range bad {
			ln := NewLoopbackNet()
			l, err := ln.Listen("canned")
			if err != nil {
				t.Fatal(err)
			}
			cannedShard(t, l, func(i, _ int) []byte {
				switch i {
				case 0:
					return tc.payload
				case 1:
					return full
				}
				return nil
			})
			rs, err := DialShard(ctx, "canned", cfg, Options{Dial: ln.Dial, Mutable: mutable})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int32, m)
			for i := range out {
				out[i] = -1
			}
			err = rs.PartialCounts(ctx, epoch, 0, 0.01, 5, out)
			var te *Error
			if !errors.As(err, &te) || te.Kind != KindProtocol {
				t.Fatalf("%s response at epoch %d: err = %v, want a protocol error", tc.name, epoch, err)
			}
			if slices.ContainsFunc(out, func(v int32) bool { return v != -1 }) {
				t.Fatalf("%s response at epoch %d wrote into the buffer", tc.name, epoch)
			}
			if err := rs.PartialCounts(ctx, epoch, 0, 0.01, 5, out); err != nil || !slices.Equal(out, good) {
				t.Fatalf("well-formed response after a %s one at epoch %d: %v", tc.name, epoch, err)
			}
			rs.Close()
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestCountRoundAllocs pins the allocations of one count round into a
// caller-owned buffer: LocalShard.PartialCounts, and one PARTIALS round
// trip (client and server together, both in this process) on a loopback
// RemoteShard and through a 2-replica ReplicatedShard as a placement
// builds it. No layer copies the count vector, so a round costs a few
// small objects: the count pass and the connection's cancellation hook for
// the caller's cancelable context. A replica set derives its cancel scope
// once per caller context, not per round. Each budget is what the round
// costs plus 2.
func TestCountRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random, so allocation counts vary")
	}
	pts := testPoints(t, 43, 400, 2)
	addrs, copts := startServers(t, 2, ServerOptions{Workers: 1})
	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	cell := testCellOptions(2)
	cfg := geometry.ShardConfig{Points: frameOf(t, pts), Owned: members, Cell: cell}
	// A sweep's calls run under its cancelable scope, so every round arms
	// the connection's cancellation hook.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	remote, err := DialShard(ctx, addrs[0], cfg, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	replicated, err := ReplicatedShardDialer([][]string{addrs}, ReplicaOptions{Options: copts, ProbeInterval: -1})(ctx, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replicated.Close()
	cell.Workers = 1 // the servers' count passes run inline too
	local, err := geometry.NewLocalShard(geometry.ShardConfig{Points: cfg.Points, Owned: members, Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, len(pts))
	for _, tc := range []struct {
		name   string
		be     geometry.ShardBackend
		budget float64
	}{
		{"local", local, 3},
		{"remote", remote, 5},
		{"replicated", replicated, 5},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.be.PartialCounts(ctx, geometry.EpochFrozen, 3, 0.01, 40, out); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per round", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: one count round allocates %.1f objects, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
