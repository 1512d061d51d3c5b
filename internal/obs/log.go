package obs

import (
	"io"
	"log/slog"
	"time"
)

// Logger is the structured logger of the serving tier: slog with a
// line-oriented key=value text handler plus a slow-query threshold. Like
// the rest of the package it must never be handed data values — attrs are
// names, durations, counts, addresses and trace IDs.
//
// A nil *Logger is valid and silent, so instrumented code needs no
// branches.
type Logger struct {
	s *slog.Logger
	// Slow is the query duration at or above which Query escalates from
	// Info to Warn with slow=true. Zero disables the escalation.
	Slow time.Duration
}

// NewLogger returns a Logger writing slog text lines to w at the given
// level, with the slow-query threshold slow (0 = no escalation).
func NewLogger(w io.Writer, level slog.Level, slow time.Duration) *Logger {
	return &Logger{
		s:    slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})),
		Slow: slow,
	}
}

// Info logs at Info level. Nil-safe.
func (l *Logger) Info(msg string, args ...any) {
	if l != nil {
		l.s.Info(msg, args...)
	}
}

// Error logs at Error level. Nil-safe.
func (l *Logger) Error(msg string, args ...any) {
	if l != nil {
		l.s.Error(msg, args...)
	}
}

// Query logs one finished query with its trace ID and duration, at Info —
// or at Warn with slow=true when d reaches the slow threshold. Extra args
// follow the usual slog key/value convention.
func (l *Logger) Query(id TraceID, name string, d time.Duration, args ...any) {
	if l == nil {
		return
	}
	base := []any{"trace_id", id.String(), "query", name, "duration", d.String()}
	base = append(base, args...)
	if l.Slow > 0 && d >= l.Slow {
		l.s.Warn("slow query", append(base, "slow", true)...)
		return
	}
	l.s.Info("query", base...)
}
