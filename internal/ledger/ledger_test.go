package ledger

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Outstanding returns the number of unsettled holds.
func (l *Ledger) Outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.holds)
}

// Compact forces a snapshot + journal truncation now.
func (l *Ledger) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.compactLocked()
}

func open(t *testing.T, dir string, opts Options) *Ledger {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func costEq(a, b Cost) bool {
	return math.Abs(a.Epsilon-b.Epsilon) < 1e-12 && math.Abs(a.Delta-b.Delta) < 1e-12
}

// TestReserveCommitRelease: the two-phase lifecycle moves amounts between
// reserved and spent exactly, and settling a hold twice is refused.
func TestReserveCommitRelease(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	if err := l.Grant("alice", Cost{Epsilon: 10, Delta: 1e-4}); err != nil {
		t.Fatal(err)
	}

	r1, err := l.Reserve("alice", Cost{Epsilon: 3, Delta: 2e-5})
	if err != nil {
		t.Fatal(err)
	}
	bal, ok := l.Balance("alice")
	if !ok || !costEq(bal.Reserved, Cost{Epsilon: 3, Delta: 2e-5}) || !bal.Spent.IsZero() {
		t.Fatalf("after reserve: %+v", bal)
	}
	if err := r1.Commit(); err != nil {
		t.Fatal(err)
	}
	bal, _ = l.Balance("alice")
	if !costEq(bal.Spent, Cost{Epsilon: 3, Delta: 2e-5}) || !bal.Reserved.IsZero() {
		t.Fatalf("after commit: %+v", bal)
	}
	if err := r1.Commit(); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("double commit: %v, want ErrUnknownReservation", err)
	}

	r2, err := l.Reserve("alice", Cost{Epsilon: 5, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Release(); err != nil {
		t.Fatal(err)
	}
	bal, _ = l.Balance("alice")
	if !bal.Reserved.IsZero() || !costEq(bal.Spent, Cost{Epsilon: 3, Delta: 2e-5}) {
		t.Fatalf("after release: %+v", bal)
	}
	if err := r2.Release(); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("double release: %v, want ErrUnknownReservation", err)
	}
	if !costEq(bal.Remaining(), Cost{Epsilon: 7, Delta: 8e-5}) {
		t.Fatalf("Remaining = %v", bal.Remaining())
	}
}

// TestAdmissionRefusal: reservations past the grant are refused with the
// typed *InsufficientError, outstanding holds count against admission,
// an unknown principal has a zero budget, and a grant sized for exactly
// k queries admits all k (the float-slack rule).
func TestAdmissionRefusal(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	if err := l.Grant("p", Cost{Epsilon: 2, Delta: 2e-6}); err != nil {
		t.Fatal(err)
	}

	hold, err := l.Reserve("p", Cost{Epsilon: 1.5, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// The outstanding hold leaves only 0.5: a 1.0 reservation must fail
	// even though spent is still zero.
	_, err = l.Reserve("p", Cost{Epsilon: 1, Delta: 1e-6})
	var ie *InsufficientError
	if !errors.As(err, &ie) || !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reserve: %v, want *InsufficientError", err)
	}
	if ie.Principal != "p" || !costEq(ie.Requested, Cost{Epsilon: 1, Delta: 1e-6}) {
		t.Fatalf("error fields: %+v", ie)
	}
	if err := hold.Release(); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Reserve("nobody", Cost{Epsilon: 0.1, Delta: 0}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("unknown principal reserve: %v, want ErrInsufficient", err)
	}

	// Exactly-k admission: 10 queries of ε=0.2, δ=2e-7 against the grant.
	for i := 0; i < 10; i++ {
		r, err := l.Reserve("p", Cost{Epsilon: 0.2, Delta: 2e-7})
		if err != nil {
			t.Fatalf("query %d refused: %v", i, err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Reserve("p", Cost{Epsilon: 0.2, Delta: 2e-7}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("11th query: %v, want ErrInsufficient", err)
	}
}

// TestPersistenceAcrossReopen: committed spends and grants survive
// close + reopen bit-exactly, and a budget refusal therefore persists.
func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	if err := l.Grant("alice", Cost{Epsilon: 1, Delta: 1e-6}); err != nil {
		t.Fatal(err)
	}
	r, err := l.Reserve("alice", Cost{Epsilon: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{})
	bal, ok := l2.Balance("alice")
	if !ok || bal.Granted != (Cost{Epsilon: 1, Delta: 1e-6}) || bal.Spent != (Cost{Epsilon: 1, Delta: 1e-6}) {
		t.Fatalf("reopened balance: %+v", bal)
	}
	if _, err := l2.Reserve("alice", Cost{Epsilon: 0.5, Delta: 0}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("refusal did not persist: %v", err)
	}
}

// TestDanglingHoldCommittedOnOpen: a hold left unsettled (simulating a
// crash between Reserve and Commit) is finalized as a spend by the next
// Open — the conservative direction that makes double-spending
// impossible — and the conversion itself is durable.
func TestDanglingHoldCommittedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	if err := l.Grant("p", Cost{Epsilon: 4, Delta: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve("p", Cost{Epsilon: 3, Delta: 0}); err != nil {
		t.Fatal(err)
	}
	// Close without settling: the hold dangles exactly as after a crash.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{})
	bal, _ := l2.Balance("p")
	if !costEq(bal.Spent, Cost{Epsilon: 3, Delta: 0}) || !bal.Reserved.IsZero() {
		t.Fatalf("dangling hold not committed: %+v", bal)
	}
	if l2.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", l2.Outstanding())
	}
	// The finalization was journaled: a third open sees the same state.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := open(t, dir, Options{})
	if bal, _ := l3.Balance("p"); !costEq(bal.Spent, Cost{Epsilon: 3, Delta: 0}) {
		t.Fatalf("finalization not durable: %+v", bal)
	}
}

// TestSingleWriterLock: a second Open of a live ledger directory fails
// with ErrLocked — the mechanism that keeps two daemons from jointly
// over-spending — and the lock is released by Close.
func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	l2.Close()
}

// TestCompaction: automatic snapshots truncate the journal without
// changing materialized state, outstanding holds survive compaction,
// and reopen from snapshot+journal reproduces the exact balances.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SnapshotEvery: 8})
	if err := l.Grant("a", Cost{Epsilon: 1000, Delta: 1e-3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r, err := l.Reserve("a", Cost{Epsilon: 1, Delta: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// A hold outstanding across a forced compaction must survive it.
	holdRes, err := l.Reserve("a", Cost{Epsilon: 2, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("journal not truncated after Compact: %d bytes", st.Size())
	}
	bal, _ := l.Balance("a")
	if !costEq(bal.Spent, Cost{Epsilon: 20, Delta: 20e-8}) || !costEq(bal.Reserved, Cost{Epsilon: 2, Delta: 0}) {
		t.Fatalf("post-compact balance: %+v", bal)
	}
	if err := holdRes.Release(); err != nil {
		t.Fatalf("releasing a hold that crossed a compaction: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{})
	bal2, _ := l2.Balance("a")
	if !costEq(bal2.Spent, bal.Spent) || !bal2.Reserved.IsZero() || bal2.Granted != bal.Granted {
		t.Fatalf("reopen after compaction: %+v, want spent %v", bal2, bal.Spent)
	}
}

// TestConcurrentReservesNeverOverspend: racing reservations across
// goroutines admit exactly as many as the grant affords — run under
// -race in CI.
func TestConcurrentReservesNeverOverspend(t *testing.T) {
	l := open(t, t.TempDir(), Options{NoSync: true})
	const affordable = 16
	if err := l.Grant("p", Cost{Epsilon: affordable, Delta: affordable * 1e-7}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r, err := l.Reserve("p", Cost{Epsilon: 1, Delta: 1e-7})
				if err != nil {
					if !errors.Is(err, ErrInsufficient) {
						t.Errorf("unexpected reserve error: %v", err)
					}
					continue
				}
				mu.Lock()
				admitted++
				mu.Unlock()
				if err := r.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if admitted != affordable {
		t.Fatalf("admitted %d reservations, want exactly %d", admitted, affordable)
	}
	bal, _ := l.Balance("p")
	if bal.Spent.Epsilon > affordable*(1+1e-9)+1e-9 {
		t.Fatalf("over-spent: %+v", bal)
	}
}

// TestValidation: malformed principals and costs are rejected before any
// journal write, and operations on a closed ledger fail with ErrClosed.
func TestValidation(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	if err := l.Grant("", Cost{Epsilon: 1}); err == nil {
		t.Error("empty principal accepted")
	}
	long := make([]byte, maxPrincipalLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if err := l.Grant(string(long), Cost{Epsilon: 1}); err == nil {
		t.Error("oversized principal accepted")
	}
	for _, c := range []Cost{
		{Epsilon: -1}, {Epsilon: math.NaN()}, {Epsilon: math.Inf(1)},
		{Epsilon: 1, Delta: -0.5}, {Epsilon: 1, Delta: 1},
	} {
		if err := l.Grant("p", c); err == nil {
			t.Errorf("invalid cost %v accepted by Grant", c)
		}
		if _, err := l.Reserve("p", c); err == nil {
			t.Errorf("invalid cost %v accepted by Reserve", c)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Grant("p", Cost{Epsilon: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Grant after Close: %v", err)
	}
	if _, err := l.Reserve("p", Cost{Epsilon: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Reserve after Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestCorruptSnapshotRefused: a snapshot whose checksum fails is real
// corruption — Open reports it rather than silently starting from an
// empty (budget-resetting!) state.
func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	if err := l.Grant("p", Cost{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestManyPrincipals: accounting is independent per principal and
// Principals lists them sorted.
func TestManyPrincipals(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		if err := l.Grant(name, Cost{Epsilon: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := l.Reserve("p3", Cost{Epsilon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve("p0", Cost{Epsilon: 2}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("p0 over-reserve: %v", err)
	}
	if bal, _ := l.Balance("p1"); !bal.Spent.IsZero() {
		t.Fatalf("p3's spend leaked into p1: %+v", bal)
	}
	got := l.Principals()
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	if len(got) != len(want) {
		t.Fatalf("Principals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Principals = %v, want %v", got, want)
		}
	}
}
