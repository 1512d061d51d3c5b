package ledger

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Journal record framing — the same length-prefixed, checksummed
// discipline as internal/transport's wire frames, adapted for a file:
//
//	uint32  body length (big endian)
//	uint32  CRC-32 (IEEE) of the body
//	[]byte  body (length bytes)
//
// body:
//
//	uint8   op (opGrant | opReserve | opCommit | opRelease)
//	uint64  seq — monotonic sequence number; a reserve's seq is its hold id
//	grant/reserve: uint16 principal length, principal bytes,
//	               float64 ε bits, float64 δ bits (big-endian IEEE)
//	commit/release: uint64 hold id
//
// A record is only acted on once fully written and fsynced, so replay
// may treat any trailing partial or checksum-failing record as a torn
// tail from a crash and truncate it: the call that was writing it never
// returned, so no caller observed the state it encoded.
const (
	opGrant   = 1
	opReserve = 2
	opCommit  = 3
	opRelease = 4
)

// maxRecordBody bounds a record body so replay of a corrupt length
// prefix cannot allocate unboundedly: op + seq + principal-length +
// principal + two float64s, with room to spare.
const maxRecordBody = 1 + 8 + 2 + maxPrincipalLen + 16 + 64

// record is one decoded journal record.
type record struct {
	op        uint8
	seq       uint64
	principal string // grant, reserve
	cost      Cost   // grant, reserve
	resID     uint64 // commit, release
}

// encode appends the record's framed bytes to b.
func (rec *record) encode(b []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholders
	body := len(b)
	b = append(b, rec.op)
	b = binary.BigEndian.AppendUint64(b, rec.seq)
	switch rec.op {
	case opGrant, opReserve:
		b = binary.BigEndian.AppendUint16(b, uint16(len(rec.principal)))
		b = append(b, rec.principal...)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(rec.cost.Epsilon))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(rec.cost.Delta))
	case opCommit, opRelease:
		b = binary.BigEndian.AppendUint64(b, rec.resID)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-body))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(b[body:]))
	return b
}

// decodeBody parses a record body (already length- and CRC-verified).
func decodeBody(body []byte) (record, error) {
	var rec record
	if len(body) < 9 {
		return rec, fmt.Errorf("record body of %d bytes is too short", len(body))
	}
	rec.op = body[0]
	rec.seq = binary.BigEndian.Uint64(body[1:9])
	rest := body[9:]
	switch rec.op {
	case opGrant, opReserve:
		if len(rest) < 2 {
			return rec, fmt.Errorf("truncated principal length")
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if n > maxPrincipalLen || len(rest) != n+16 {
			return rec, fmt.Errorf("bad grant/reserve body")
		}
		rec.principal = string(rest[:n])
		rec.cost.Epsilon = math.Float64frombits(binary.BigEndian.Uint64(rest[n:]))
		rec.cost.Delta = math.Float64frombits(binary.BigEndian.Uint64(rest[n+8:]))
	case opCommit, opRelease:
		if len(rest) != 8 {
			return rec, fmt.Errorf("bad commit/release body")
		}
		rec.resID = binary.BigEndian.Uint64(rest)
	default:
		return rec, fmt.Errorf("unknown op %d", rec.op)
	}
	return rec, nil
}

func (l *Ledger) journalPath() string { return filepath.Join(l.dir, "journal") }

// appendLocked assigns the record the next sequence number, writes its
// frame to the journal and fsyncs. Only after the sync succeeds may the
// caller apply the record — a failed append leaves at most a torn tail
// that the next Open truncates, and the call reports the failure instead
// of claiming durability it does not have.
func (l *Ledger) appendLocked(rec *record) error {
	rec.seq = l.seq + 1
	frame := rec.encode(make([]byte, 0, 64))
	if _, err := l.journal.Write(frame); err != nil {
		return fmt.Errorf("ledger: journal append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.journal.Sync(); err != nil {
			return fmt.Errorf("ledger: journal sync: %w", err)
		}
	}
	l.recsSinceSnap++
	return nil
}

// openAndReplayJournal opens (creating if absent) the journal, replays
// every complete record with seq beyond the snapshot's, and truncates a
// torn tail. Records at or below the snapshot's sequence are skipped:
// they were already folded into the snapshot, and a crash between
// snapshot rename and journal truncation legitimately leaves them
// behind.
func (l *Ledger) openAndReplayJournal() error {
	f, err := os.OpenFile(l.journalPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return err
	}
	snapSeq := l.seq
	off := 0
	for {
		rec, n, ok := nextRecord(data[off:])
		if !ok {
			break
		}
		off += n
		if rec.seq <= snapSeq {
			continue
		}
		if err := l.checkRecoveredLocked(&rec); err != nil {
			f.Close()
			return err
		}
		l.applyLocked(&rec)
		l.recsSinceSnap++
	}
	if off < len(data) {
		// Torn tail from a crash mid-append: drop it (see the framing
		// comment for why that is safe) and keep appending from here.
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.journal = f
	return nil
}

// checkRecoveredLocked rejects a checksum-valid record no live call could
// have written: corruption, not a torn tail, so Open fails on it.
func (l *Ledger) checkRecoveredLocked(rec *record) error {
	var acct account
	if a := l.accounts[rec.principal]; a != nil {
		acct = *a
	}
	switch rec.op {
	case opGrant:
		return recovered(rec.principal, rec.cost, acct.granted)
	case opReserve:
		return recovered(rec.principal, rec.cost, acct.reserved)
	case opCommit:
		if h, ok := l.holds[rec.resID]; ok {
			return recovered(h.principal, h.cost, l.accounts[h.principal].spent)
		}
	}
	return nil
}

// nextRecord parses one framed record from the head of data, returning
// ok=false on a partial, checksum-failing, or malformed head — the torn
// tail, from the replay loop's point of view.
func nextRecord(data []byte) (rec record, n int, ok bool) {
	if len(data) < 8 {
		return rec, 0, false
	}
	bodyLen := int(binary.BigEndian.Uint32(data))
	if bodyLen < 9 || bodyLen > maxRecordBody || len(data) < 8+bodyLen {
		return rec, 0, false
	}
	body := data[8 : 8+bodyLen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[4:]) {
		return rec, 0, false
	}
	rec, err := decodeBody(body)
	if err != nil {
		return rec, 0, false
	}
	return rec, 8 + bodyLen, true
}
