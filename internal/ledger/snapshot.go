package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot file format (big endian throughout):
//
//	[4]byte magic "PLGS"
//	uint16  version (1)
//	uint64  last folded sequence number
//	uint32  account count
//	  per account: uint16 name length, name bytes,
//	               float64 granted ε, granted δ, spent ε, spent δ
//	uint32  outstanding hold count
//	  per hold: uint64 id, uint16 name length, name bytes, float64 ε, δ
//	uint32  CRC-32 (IEEE) of everything above
//
// The snapshot is written to a temp file, fsynced, and renamed into
// place, so it is either absent or complete; a CRC or grammar failure is
// real corruption, not a crash artifact, and Open refuses to guess.
// Holds ARE persisted in snapshots: a compaction must not silently
// commit or drop in-flight reservations, it only moves them from the
// journal into the snapshot.

var snapshotMagic = [4]byte{'P', 'L', 'G', 'S'}

const snapshotVersion = 1

func (l *Ledger) snapshotPath() string { return filepath.Join(l.dir, "snapshot") }

// compactLocked writes the materialized state as a fresh snapshot and
// truncates the journal. Crash-safe at every step: the rename is atomic,
// the snapshot's sequence number makes replaying a not-yet-truncated
// journal idempotent, and until the rename lands the old snapshot +
// full journal still reproduce the exact same state.
func (l *Ledger) compactLocked() error {
	data := l.encodeSnapshotLocked()
	tmp := l.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.snapshotPath()); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := l.journal.Truncate(0); err != nil {
		return err
	}
	if _, err := l.journal.Seek(0, 0); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.journal.Sync(); err != nil {
			return err
		}
	}
	l.recsSinceSnap = 0
	return nil
}

// encodeSnapshotLocked serializes the current state (sorted, so
// snapshots of equal states are byte-identical).
func (l *Ledger) encodeSnapshotLocked() []byte {
	b := make([]byte, 0, 64+64*len(l.accounts)+48*len(l.holds))
	b = append(b, snapshotMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, snapshotVersion)
	b = binary.BigEndian.AppendUint64(b, l.seq)

	names := make([]string, 0, len(l.accounts))
	for name := range l.accounts {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.BigEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		acct := l.accounts[name]
		b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		for _, v := range [4]float64{acct.granted.Epsilon, acct.granted.Delta, acct.spent.Epsilon, acct.spent.Delta} {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
	}

	ids := make([]uint64, 0, len(l.holds))
	for id := range l.holds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = binary.BigEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		h := l.holds[id]
		b = binary.BigEndian.AppendUint64(b, id)
		b = binary.BigEndian.AppendUint16(b, uint16(len(h.principal)))
		b = append(b, h.principal...)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.cost.Epsilon))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.cost.Delta))
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// loadSnapshot loads the snapshot file if present, seeding seq,
// accounts, and outstanding holds. Reserved totals are recomputed from
// the holds rather than stored — one source of truth.
func (l *Ledger) loadSnapshot() error {
	data, err := os.ReadFile(l.snapshotPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) < 4+2+8+4+4+4 {
		return fmt.Errorf("%w: %d bytes", errCorrupt, len(data))
	}
	payload, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	r := snapReader{b: payload}
	var magic [4]byte
	copy(magic[:], r.take(4))
	if magic != snapshotMagic {
		return fmt.Errorf("%w: bad magic", errCorrupt)
	}
	if v := r.u16(); v != snapshotVersion {
		return fmt.Errorf("ledger: snapshot version %d not supported", v)
	}
	l.seq = r.u64()
	// Counts must fit the bytes left (an account takes ≥ 35, a hold ≥ 27),
	// loops stop at the first decode error, and names and amounts must be
	// ones a live call could have written.
	for n := r.count(2 + 1 + 4*8); n > 0 && r.err == nil; n-- {
		name := r.str()
		granted := Cost{Epsilon: r.f64(), Delta: r.f64()}
		spent := Cost{Epsilon: r.f64(), Delta: r.f64()}
		if validPrincipal(name) != nil || !granted.finite() || !spent.finite() {
			return fmt.Errorf("%w: invalid account %q", errCorrupt, name)
		}
		acct := l.ensureAccountLocked(name)
		acct.granted, acct.spent = granted, spent
	}
	for n := r.count(8 + 2 + 1 + 2*8); n > 0 && r.err == nil; n-- {
		id := r.u64()
		h := hold{principal: r.str(), cost: Cost{Epsilon: r.f64(), Delta: r.f64()}}
		acct := l.ensureAccountLocked(h.principal)
		if err := recovered(h.principal, h.cost, acct.reserved); err != nil {
			return err
		}
		l.holds[id] = h
		acct.reserved = acct.reserved.Add(h.cost)
	}
	if r.err != nil || r.off != len(payload) {
		return fmt.Errorf("%w: truncated or oversized payload", errCorrupt)
	}
	return nil
}

// snapReader decodes a snapshot payload with sticky errors (the rbuf
// idiom of internal/transport).
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = errCorrupt
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *snapReader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}

func (r *snapReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (r *snapReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads an element count, failing the reader when the bytes left
// cannot hold that many elements of at least size bytes each.
func (r *snapReader) count(size int) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/size {
		r.err = errCorrupt
		return 0
	}
	return n
}

func (r *snapReader) str() string {
	n := int(r.u16())
	return string(r.take(n))
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
