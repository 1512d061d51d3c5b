package vec

import (
	"errors"
	"testing"
)

func TestMutableFrameViews(t *testing.T) {
	base, err := FrameFromData([]float64{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutableFrame(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 || m.Dim() != 2 {
		t.Fatalf("N=%d Dim=%d, want 2, 2", m.N(), m.Dim())
	}

	v2 := m.View(2)
	rows, _ := FrameFromData([]float64{5, 6, 7, 8}, 2)
	if err := m.Append(rows); err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 {
		t.Fatalf("N after append = %d, want 4", m.N())
	}
	// The earlier view is frozen at its row count.
	if v2.N() != 2 {
		t.Fatalf("stale view N = %d, want 2", v2.N())
	}
	v4 := m.View(4)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := v4.Data()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("view row data[%d] = %v, want %v", i, got[i], w)
		}
	}

	// A view's capacity is clamped: appending into spare capacity of the
	// buffer must not be observable through any view.
	if c := cap(v2.Data()); c != 4 {
		t.Fatalf("view cap = %d coordinates, want 4", c)
	}

	delta := m.Slice(2, 4)
	if delta.N() != 2 {
		t.Fatalf("slice N = %d, want 2", delta.N())
	}
	if r := delta.Row(1); r[0] != 7 || r[1] != 8 {
		t.Fatalf("slice row 1 = %v, want [7 8]", r)
	}
}

func TestMutableFrameAppendIsolation(t *testing.T) {
	// Grow far enough to force at least one reallocation and verify old
	// views still read the original coordinates.
	base, _ := FrameFromData([]float64{0, 0}, 2)
	m, err := NewMutableFrame(base)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*Frame, 0, 64)
	for i := 1; i <= 64; i++ {
		views = append(views, m.View(i))
		row, _ := FrameFromData([]float64{float64(i), float64(-i)}, 2)
		if err := m.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range views {
		if v.N() != i+1 {
			t.Fatalf("view %d has N=%d, want %d", i, v.N(), i+1)
		}
		last := v.Row(v.N() - 1)
		if last[0] != float64(i) || last[1] != float64(-i) {
			t.Fatalf("view %d last row = %v, want [%d %d]", i, last, i, -i)
		}
	}
}

func TestMutableFrameErrors(t *testing.T) {
	if _, err := NewMutableFrame(nil); err == nil {
		t.Fatal("NewMutableFrame(nil) succeeded")
	}
	base, _ := FrameFromData([]float64{1, 2}, 2)

	m, err := NewMutableFrame(base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := FrameFromData([]float64{1, 2, 3}, 3)
	if err := m.Append(bad); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim-mismatch append error = %v, want ErrDimMismatch", err)
	}
	if err := m.Append(nil); err != nil {
		t.Fatalf("nil append error = %v", err)
	}
}
