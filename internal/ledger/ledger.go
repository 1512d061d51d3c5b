// Package ledger is a durable, crash-safe, multi-tenant (ε, δ) privacy
// budget ledger with zero external dependencies. It is the accounting
// substrate cmd/privclusterd serves from: per-principal budgets that
// survive process restarts and are enforced across Dataset handles and
// across processes — the composition resource the privacy guarantee of
// the whole system actually rests on.
//
// # Model
//
// A ledger lives in one directory and tracks, per principal (an opaque
// string — the daemon maps API keys onto principals):
//
//   - granted: the total (ε, δ) the principal may ever spend (grants are
//     additive, append-only — budget is only ever extended, never clawed
//     back, because spent privacy cannot be un-spent);
//   - spent: the (ε, δ) of finalized charges;
//   - reserved: the (ε, δ) of in-flight holds.
//
// Spending is two-phase. Reserve places a durable hold — it returns only
// after the hold's journal record is fsynced — and refuses (with a typed
// *InsufficientError) any hold that would push spent+reserved past
// granted. The caller runs the query, then settles the hold: Commit
// finalizes the charge, Release returns it (legitimate only when the
// mechanism provably never ran — e.g. index construction failed before
// any noise was drawn). A process that crashes between Reserve and
// settlement leaves a dangling hold; the next Open finds it and commits
// it (conservatively: the dead process may have drawn noise after the
// hold landed). The invariant is one-sided on purpose — replayed state
// can over-count an unsettled hold as spent, but can never under-count a
// committed spend, and a retry after a crash spends fresh budget instead
// of reusing the old hold. That is what makes double-spending impossible
// across crashes.
//
// # Durability
//
// State is an append-only journal of checksummed, length-prefixed
// records (the framing discipline of internal/transport's wire protocol),
// fsynced before any mutating call returns. Replay tolerates a torn tail:
// a crash mid-append leaves at most one partial record at the end of the
// file, which replay truncates — safe, because the call that wrote it
// never returned success, so no caller acted on it. Every
// snapshotEvery records the ledger compacts: the materialized state is
// written to a snapshot file (atomic tmp+rename), and the journal is
// truncated. Records carry monotonic sequence numbers and the snapshot
// records the last one it folded in, so a crash anywhere in the
// compaction sequence replays to exactly the same state.
//
// # Single writer
//
// Open takes an exclusive flock on the directory's lock file and fails
// with ErrLocked while another process holds it. Combined with the
// in-process mutex this makes admission serializable: two daemons
// pointed at one ledger directory cannot jointly over-spend a principal,
// because the second daemon never gets the ledger open. The lock is
// released by Close or by process death (flock semantics), so a crashed
// daemon never wedges the directory.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Cost is an (ε, δ) amount — a grant, a hold, or a charge.
type Cost struct {
	Epsilon float64
	Delta   float64
}

// IsZero reports whether c is the zero amount.
func (c Cost) IsZero() bool { return c == Cost{} }

// Add returns c + o.
func (c Cost) Add(o Cost) Cost {
	return Cost{Epsilon: c.Epsilon + o.Epsilon, Delta: c.Delta + o.Delta}
}

// Sub returns c − o with coordinates clipped at zero (float residue from
// exact add/subtract cycles must not leak out as negative budget).
func (c Cost) Sub(o Cost) Cost {
	return Cost{
		Epsilon: math.Max(0, c.Epsilon-o.Epsilon),
		Delta:   math.Max(0, c.Delta-o.Delta),
	}
}

func (c Cost) String() string { return fmt.Sprintf("(ε=%g, δ=%g)", c.Epsilon, c.Delta) }

// validate rejects amounts that can corrupt accounting: negative, NaN or
// infinite coordinates, or δ outside [0, 1).
func (c Cost) validate() error {
	if c.Epsilon < 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("ledger: epsilon must be ≥ 0 and finite, got %v", c.Epsilon)
	}
	if c.Delta < 0 || c.Delta >= 1 || math.IsNaN(c.Delta) {
		return fmt.Errorf("ledger: delta must be in [0, 1), got %v", c.Delta)
	}
	return nil
}

// finite reports whether both coordinates are finite and ≥ 0, as every
// total must be (a total's δ, unlike an amount's, may exceed 1).
func (c Cost) finite() bool {
	return c.Epsilon >= 0 && c.Delta >= 0 && !math.IsInf(c.Epsilon, 1) && !math.IsInf(c.Delta, 1)
}

// recovered rejects with errCorrupt an amount c for principal p, read back
// to be added to total, that no live call could have written.
func recovered(p string, c, total Cost) error {
	if validPrincipal(p) != nil || c.validate() != nil || !total.Add(c).finite() {
		return fmt.Errorf("%w: amount %v for principal %q on total %v", errCorrupt, c, p, total)
	}
	return nil
}

// fits reports whether held+cost still fits within total — the one
// admission rule. The relative-plus-absolute slack mirrors
// privcluster.Budget.allows: a budget sized for exactly k queries admits
// all k despite float accumulation. A sum that overflows never fits.
func fits(total, held, cost Cost) bool {
	const slack = 1e-9
	return held.Add(cost).finite() &&
		held.Epsilon+cost.Epsilon <= total.Epsilon*(1+slack)+slack &&
		held.Delta+cost.Delta <= total.Delta*(1+slack)+slack
}

// Balance is one principal's materialized account state.
type Balance struct {
	// Granted is the total (ε, δ) ever granted to the principal.
	Granted Cost
	// Spent is the sum of committed charges (including dangling holds
	// conservatively finalized by crash recovery).
	Spent Cost
	// Reserved is the sum of outstanding (unsettled) holds.
	Reserved Cost
}

// Remaining returns what a new reservation may still claim:
// granted − spent − reserved, clipped at zero.
func (b Balance) Remaining() Cost { return b.Granted.Sub(b.Spent).Sub(b.Reserved) }

// Errors.
var (
	// ErrInsufficient is the sentinel a refused reservation wraps; the
	// concrete error is a *InsufficientError carrying the balance.
	ErrInsufficient = errors.New("ledger: insufficient budget")
	// ErrLocked means another process holds the ledger directory.
	ErrLocked = errors.New("ledger: directory is locked by another process")
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("ledger: closed")
	// ErrUnknownReservation is returned by Commit/Release of a hold the
	// ledger does not know (already settled, or never reserved).
	ErrUnknownReservation = errors.New("ledger: unknown reservation")
	// errCorrupt marks an unreadable snapshot, or a checksum-valid
	// journal record no live call could have written — unlike a torn
	// journal tail this is real corruption and Open refuses to guess.
	errCorrupt = errors.New("ledger: corrupt snapshot or journal")
)

// InsufficientError is the typed form of a refused reservation: the
// principal, its balance at refusal time, and the requested cost. It
// wraps ErrInsufficient.
type InsufficientError struct {
	Principal string
	Balance   Balance
	Requested Cost
}

func (e *InsufficientError) Error() string {
	return fmt.Sprintf("%v: principal %q requested %v, remaining %v (granted %v, spent %v, reserved %v)",
		ErrInsufficient, e.Principal, e.Requested, e.Balance.Remaining(),
		e.Balance.Granted, e.Balance.Spent, e.Balance.Reserved)
}

// Unwrap makes errors.Is(err, ErrInsufficient) hold.
func (e *InsufficientError) Unwrap() error { return ErrInsufficient }

// Options configures Open.
type Options struct {
	// SnapshotEvery is the number of journal records between automatic
	// compactions (snapshot + journal truncation). 0 means the default of
	// 1024; negative disables automatic compaction (tests).
	SnapshotEvery int
	// NoSync skips the fsync after each journal append. Only for tests
	// and benchmarks that measure the non-fsync cost — a real deployment
	// must never set it, since an un-synced record can vanish in a crash
	// after Reserve has already returned success.
	NoSync bool
}

const defaultSnapshotEvery = 1024

// account is one principal's live state. reserved is derived (the sum
// over outstanding holds) but kept materialized for O(1) admission.
type account struct {
	granted  Cost
	spent    Cost
	reserved Cost
}

// hold is one outstanding reservation.
type hold struct {
	principal string
	cost      Cost
}

// Ledger is the open, exclusively locked ledger. All methods are safe
// for concurrent use; admission and journal appends are serialized under
// one mutex so racing reservations can never jointly over-spend.
type Ledger struct {
	dir  string
	opts Options

	mu            sync.Mutex
	closed        bool
	lock          *os.File
	journal       *os.File
	seq           uint64 // last sequence number written (or folded into the snapshot)
	recsSinceSnap int
	accounts      map[string]*account
	holds         map[uint64]hold
}

// Open opens (creating if necessary) the ledger in dir, takes the
// exclusive process lock, loads the snapshot, replays the journal —
// truncating a torn tail, skipping records the snapshot already folded
// in — and finalizes any dangling holds left by a crashed process as
// committed spends (see the package comment for why that direction is
// the safe one).
func Open(dir string, opts Options) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := acquireLock(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		dir:      dir,
		opts:     opts,
		lock:     lock,
		accounts: make(map[string]*account),
		holds:    make(map[uint64]hold),
	}
	if err := l.loadSnapshot(); err != nil {
		releaseLock(lock)
		return nil, err
	}
	if err := l.openAndReplayJournal(); err != nil {
		releaseLock(lock)
		return nil, err
	}
	// Dangling holds can only belong to a dead process: we hold the
	// exclusive lock, so no live process can be mid-query. Finalize them
	// as spends, durably — each conversion is an ordinary commit record,
	// so a crash during recovery just re-runs recovery.
	if err := l.settleDanglingLocked(); err != nil {
		l.journal.Close()
		releaseLock(lock)
		return nil, err
	}
	return l, nil
}

// settleDanglingLocked commits every outstanding hold (crash recovery;
// called from Open before the ledger is shared, hence no locking).
func (l *Ledger) settleDanglingLocked() error {
	if len(l.holds) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(l.holds))
	for id := range l.holds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := record{op: opCommit, resID: id}
		if err := l.appendLocked(&rec); err != nil {
			return err
		}
		l.applyLocked(&rec)
	}
	return nil
}

// Close releases the journal handle and the process lock. The ledger
// state is already durable; Close loses nothing.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	if err := l.journal.Close(); err != nil {
		first = err
	}
	if err := releaseLock(l.lock); err != nil && first == nil {
		first = err
	}
	return first
}

// Grant extends principal's total budget by c, durably. Grants are
// additive and never revoked — privacy already spent cannot be restored,
// so the only safe direction for a live ledger is up.
func (l *Ledger) Grant(principal string, c Cost) error {
	if err := validPrincipal(principal); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if acct := l.accounts[principal]; acct != nil && !acct.granted.Add(c).finite() {
		return fmt.Errorf("ledger: grant %v overflows principal %q's total %v", c, principal, acct.granted)
	}
	rec := record{op: opGrant, principal: principal, cost: c}
	if err := l.appendLocked(&rec); err != nil {
		return err
	}
	l.applyLocked(&rec)
	return l.maybeCompactLocked()
}

// Reservation is one durable hold placed by Reserve, to be settled
// exactly once with Commit or Release.
type Reservation struct {
	l         *Ledger
	id        uint64
	principal string
	cost      Cost
}

// Reserve places a durable hold of c against principal, refusing with a
// *InsufficientError (wrapping ErrInsufficient) when spent+reserved+c no
// longer fits the principal's grant. A principal that was never granted
// anything has a zero budget and refuses every non-zero hold. Reserve
// returns only after the hold's record is fsynced: once the caller sees
// success, no crash can make the hold vanish.
func (l *Ledger) Reserve(principal string, c Cost) (*Reservation, error) {
	if err := validPrincipal(principal); err != nil {
		return nil, err
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	acct := l.accounts[principal]
	var bal Balance
	if acct != nil {
		bal = Balance{Granted: acct.granted, Spent: acct.spent, Reserved: acct.reserved}
	}
	if !fits(bal.Granted, bal.Spent.Add(bal.Reserved), c) {
		return nil, &InsufficientError{Principal: principal, Balance: bal, Requested: c}
	}
	rec := record{op: opReserve, principal: principal, cost: c}
	if err := l.appendLocked(&rec); err != nil {
		return nil, err
	}
	l.applyLocked(&rec)
	if err := l.maybeCompactLocked(); err != nil {
		return nil, err
	}
	return &Reservation{l: l, id: rec.seq, principal: principal, cost: c}, nil
}

// Commit finalizes the hold as a spend, durably.
func (r *Reservation) Commit() error { return r.l.settle(r.id, opCommit) }

// Release returns the hold to the principal's available budget, durably.
// Only legitimate when the mechanism the hold was for provably never ran.
func (r *Reservation) Release() error { return r.l.settle(r.id, opRelease) }

// settle writes and applies the commit/release record for hold id.
func (l *Ledger) settle(id uint64, op uint8) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, ok := l.holds[id]; !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownReservation, id)
	}
	rec := record{op: op, resID: id}
	if err := l.appendLocked(&rec); err != nil {
		return err
	}
	l.applyLocked(&rec)
	return l.maybeCompactLocked()
}

// Balance returns principal's account state; a principal the ledger has
// never seen reports a zero balance with ok=false.
func (l *Ledger) Balance(principal string) (bal Balance, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	acct := l.accounts[principal]
	if acct == nil {
		return Balance{}, false
	}
	return Balance{Granted: acct.granted, Spent: acct.spent, Reserved: acct.reserved}, true
}

// Principals returns every account name, sorted.
func (l *Ledger) Principals() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.accounts))
	for p := range l.accounts {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// maybeCompactLocked runs the automatic compaction policy.
func (l *Ledger) maybeCompactLocked() error {
	every := l.opts.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	if every < 0 || l.recsSinceSnap < every {
		return nil
	}
	return l.compactLocked()
}

// applyLocked folds one decoded record into the materialized state.
// Shared verbatim by the live mutation paths and journal replay, so the
// replayed state is the live state by construction.
func (l *Ledger) applyLocked(rec *record) {
	if rec.seq > l.seq {
		l.seq = rec.seq
	}
	switch rec.op {
	case opGrant:
		acct := l.ensureAccountLocked(rec.principal)
		acct.granted = acct.granted.Add(rec.cost)
	case opReserve:
		acct := l.ensureAccountLocked(rec.principal)
		acct.reserved = acct.reserved.Add(rec.cost)
		l.holds[rec.seq] = hold{principal: rec.principal, cost: rec.cost}
	case opCommit:
		if h, ok := l.holds[rec.resID]; ok {
			acct := l.ensureAccountLocked(h.principal)
			acct.reserved = acct.reserved.Sub(h.cost)
			acct.spent = acct.spent.Add(h.cost)
			delete(l.holds, rec.resID)
		}
	case opRelease:
		if h, ok := l.holds[rec.resID]; ok {
			acct := l.ensureAccountLocked(h.principal)
			acct.reserved = acct.reserved.Sub(h.cost)
			delete(l.holds, rec.resID)
		}
	}
}

func (l *Ledger) ensureAccountLocked(principal string) *account {
	acct := l.accounts[principal]
	if acct == nil {
		acct = &account{}
		l.accounts[principal] = acct
	}
	return acct
}

// maxPrincipalLen bounds principal names so a journal record's size is
// bounded (the replay reader rejects larger claimed records as corrupt).
const maxPrincipalLen = 256

func validPrincipal(p string) error {
	if p == "" {
		return errors.New("ledger: empty principal")
	}
	if len(p) > maxPrincipalLen {
		return fmt.Errorf("ledger: principal longer than %d bytes", maxPrincipalLen)
	}
	return nil
}
