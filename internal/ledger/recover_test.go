package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sealSnapshot replaces a snapshot's trailing CRC with the checksum of
// everything before it (a snapshot of under four bytes is left as is).
func sealSnapshot(data []byte) []byte {
	if len(data) >= 4 {
		binary.BigEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	}
	return data
}

// sealJournal rewrites the CRC of every whole frame at the head of a
// journal whose length prefix is in range, stopping at the first that is
// not: what a writer of those bodies would have framed.
func sealJournal(data []byte) []byte {
	for off := 0; off+8 <= len(data); {
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n < 9 || n > maxRecordBody || off+8+n > len(data) {
			break
		}
		binary.BigEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:off+8+n]))
		off += 8 + n
	}
	return data
}

// writeLedgerFiles writes a ledger directory holding exactly the given
// snapshot and journal bytes (nil: no such file) and returns it.
func writeLedgerFiles(t *testing.T, snapshot, journal []byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string][]byte{"snapshot": snapshot, "journal": journal} {
		if data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSnapshotHugeCountFailsFast: a CRC-valid snapshot whose account count
// claims 2³²−1 accounts is rejected as corrupt before any account loop
// runs, instead of decoding billions of empty accounts first.
func TestSnapshotHugeCountFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name            string
		accounts, holds uint32
	}{
		{"accounts", math.MaxUint32, 0},
		{"holds", 0, math.MaxUint32},
		{"accounts past the payload", 2, 0},
	} {
		b := append([]byte(nil), snapshotMagic[:]...)
		b = binary.BigEndian.AppendUint16(b, snapshotVersion)
		b = binary.BigEndian.AppendUint64(b, 7)
		b = binary.BigEndian.AppendUint32(b, tc.accounts)
		b = binary.BigEndian.AppendUint32(b, tc.holds)
		b = sealSnapshot(append(b, 0, 0, 0, 0))
		dir := writeLedgerFiles(t, b, nil)
		start := time.Now()
		_, err := Open(dir, Options{NoSync: true})
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: Open took %v", tc.name, took)
		}
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Open = %v, want errCorrupt", tc.name, err)
		}
	}
}

// validLedger runs grants, a committed spend and an outstanding hold for
// alice, compacts, and returns the directory's snapshot and journal.
func validLedger(t *testing.T, compact bool) (snapshot, journal []byte) {
	t.Helper()
	dir := t.TempDir()
	l := open(t, dir, Options{SnapshotEvery: -1, NoSync: true})
	mustGrant(t, l, "alice", Cost{Epsilon: 4, Delta: 1e-5})
	mustSettle(t, mustReserve(t, l, "alice", Cost{Epsilon: 1, Delta: 1e-6}).Commit)
	mustReserve(t, l, "alice", Cost{Epsilon: 2, Delta: 2e-6})
	if compact {
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot, _ = os.ReadFile(filepath.Join(dir, "snapshot"))
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	return snapshot, journal
}

// TestSnapshotInvalidAmountRefused: a CRC-valid snapshot holding an
// amount or a principal no live call could have written — a +Inf grant,
// a NaN spend, a negative hold, a hold with δ = 1, an empty principal —
// fails Open with errCorrupt. Loading the +Inf grant would hand alice an
// unbounded budget.
func TestSnapshotInvalidAmountRefused(t *testing.T) {
	snap, _ := validLedger(t, true)
	// The layout after the 14-byte header: account count, then alice's
	// name length, name and four amounts; then the hold count and the one
	// hold's id, name length, name and two amounts.
	acct := 14 + 4 + 2 + len("alice")
	hold := acct + 32 + 4 + 8 + 2 + len("alice")
	for _, tc := range []struct {
		name  string
		patch func(b []byte)
	}{
		{"+Inf granted ε", func(b []byte) { putF64(b[acct:], math.Inf(1)) }},
		{"NaN spent δ", func(b []byte) { putF64(b[acct+24:], math.NaN()) }},
		{"negative granted δ", func(b []byte) { putF64(b[acct+8:], -1) }},
		{"negative hold ε", func(b []byte) { putF64(b[hold:], -2) }},
		{"hold δ = 1", func(b []byte) { putF64(b[hold+8:], 1) }},
		{"+Inf hold ε", func(b []byte) { putF64(b[hold:], math.Inf(1)) }},
	} {
		b := bytes.Clone(snap)
		tc.patch(b)
		dir := writeLedgerFiles(t, sealSnapshot(b), nil)
		if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Open = %v, want errCorrupt", tc.name, err)
		}
	}

	// An empty principal: the account's name length is 0, so its bytes are
	// cut out and the payload re-sealed.
	b := append(bytes.Clone(snap[:acct-2-len("alice")]), 0, 0)
	b = append(b, snap[acct:]...)
	if _, err := Open(writeLedgerFiles(t, sealSnapshot(b), nil), Options{NoSync: true}); !errors.Is(err, errCorrupt) {
		t.Errorf("empty principal: Open = %v, want errCorrupt", err)
	}

	// The unpatched snapshot still loads, with alice's hold settled.
	l := open(t, writeLedgerFiles(t, bytes.Clone(snap), nil), Options{NoSync: true})
	if bal, _ := l.Balance("alice"); bal.Spent != (Cost{Epsilon: 3, Delta: 3e-6}) {
		t.Fatalf("valid snapshot: balance %+v", bal)
	}
}

func putF64(b []byte, v float64) { binary.BigEndian.PutUint64(b, math.Float64bits(v)) }

// TestJournalInvalidAmountRefused: a checksum-valid journal record with an
// amount or principal no live call could have written fails Open with
// errCorrupt, and the journal is left exactly as it was — such a record is
// corruption, not a torn tail to truncate.
func TestJournalInvalidAmountRefused(t *testing.T) {
	_, prefix := validLedger(t, false)
	for _, tc := range []struct {
		name string
		rec  record
	}{
		{"+Inf grant", record{op: opGrant, seq: 100, principal: "alice", cost: Cost{Epsilon: math.Inf(1)}}},
		{"NaN reserve δ", record{op: opReserve, seq: 100, principal: "alice", cost: Cost{Delta: math.NaN()}}},
		{"negative grant", record{op: opGrant, seq: 100, principal: "bob", cost: Cost{Epsilon: -1}}},
		{"empty principal", record{op: opGrant, seq: 100, cost: Cost{Epsilon: 1}}},
		{"overflowing grant", record{op: opGrant, seq: 100, principal: "alice", cost: Cost{Epsilon: math.MaxFloat64}}},
	} {
		journal := tc.rec.encode(bytes.Clone(prefix))
		if tc.name == "overflowing grant" {
			twice := tc.rec
			twice.seq++
			journal = twice.encode(journal)
		}
		dir := writeLedgerFiles(t, nil, journal)
		if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Open = %v, want errCorrupt", tc.name, err)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "journal")); !bytes.Equal(got, journal) {
			t.Errorf("%s: journal changed from %d to %d bytes", tc.name, len(journal), len(got))
		}
	}
}

// TestGrantOverflowRefused: a grant whose running total would overflow is
// refused up front, so the live path never journals a total that recovery
// would reject.
func TestGrantOverflowRefused(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{NoSync: true})
	mustGrant(t, l, "p", Cost{Epsilon: math.MaxFloat64})
	if err := l.Grant("p", Cost{Epsilon: math.MaxFloat64}); err == nil {
		t.Fatal("overflowing grant accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, dir, Options{NoSync: true})
	if bal, _ := l2.Balance("p"); bal.Granted.Epsilon != math.MaxFloat64 {
		t.Fatalf("reopened grant %v", bal.Granted)
	}
}

// FuzzLedgerRecover feeds arbitrary snapshot and journal bytes to Open.
// With seal set, the target first rewrites the snapshot's CRC and every
// in-range journal frame's CRC, so mutations reach the decoders behind
// the checksums. Open must fail, or return a ledger whose every balance is
// finite and ≥ 0 and which survives Close and a reopen unchanged.
func FuzzLedgerRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, journal []byte, seal bool) {
		if seal {
			snapshot, journal = sealSnapshot(bytes.Clone(snapshot)), sealJournal(bytes.Clone(journal))
		}
		if len(snapshot) == 0 {
			snapshot = nil
		}
		dir := writeLedgerFiles(t, snapshot, journal)
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return
		}
		state := ledgerState(l)
		l.Close()
		for p, bal := range state {
			for _, c := range []Cost{bal.Granted, bal.Spent, bal.Reserved} {
				if !c.finite() {
					t.Fatalf("principal %q: balance %+v is not finite and ≥ 0", p, bal)
				}
			}
		}
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		again := ledgerState(l2)
		if len(again) != len(state) {
			t.Fatalf("reopen: %d principals, want %d", len(again), len(state))
		}
		for p, bal := range state {
			if again[p] != bal {
				t.Fatalf("reopen: principal %q balance %+v, want %+v", p, again[p], bal)
			}
		}
	})
}

// ledgerState returns every principal's balance.
func ledgerState(l *Ledger) map[string]Balance {
	state := make(map[string]Balance)
	for _, p := range l.Principals() {
		state[p], _ = l.Balance(p)
	}
	return state
}
