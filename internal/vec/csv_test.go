package vec

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := strings.NewReader("0.1, 0.2\n0.3,0.4\n\n# comment\n0.5 ,0.6\n")
	pts, err := ReadCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("read %d points, want 3", len(pts))
	}
	if pts[0][0] != 0.1 || pts[0][1] != 0.2 {
		t.Errorf("first point = %v", pts[0])
	}
	if pts[2][0] != 0.5 || pts[2][1] != 0.6 {
		t.Errorf("third point = %v", pts[2])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("# only comments\n")); err == nil {
		t.Error("comment-only input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("0.1,abc\n")); err == nil {
		t.Error("malformed float accepted")
	}
}

func TestReadCSVSingleColumn(t *testing.T) {
	pts, err := ReadCSV(strings.NewReader("0.5\n0.6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(pts[0]) != 1 {
		t.Fatalf("pts = %v", pts)
	}
}

// FuzzReadCSV drives ReadCSV over arbitrary bytes: it must never panic,
// and every row it accepts must round-trip bit-identically through
// strconv.FormatFloat(x, 'g', -1, 64) — re-reading the formatted rows gives
// the same shape and the same float64 bit patterns (−0, NaN and ±Inf
// included). Seed corpus under testdata/fuzz/.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("0.1, 0.2\n0.3,0.4\n\n# comment\n0.5 ,0.6\n"))
	f.Add([]byte("-0,NaN,+Inf\n1e308,5e-324,0x1p-2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadCSV(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		var b strings.Builder
		for _, p := range pts {
			for i, x := range p {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
		again, err := ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("formatted rows do not re-read: %v\n%s", err, b.String())
		}
		if len(again) != len(pts) {
			t.Fatalf("re-read %d rows, want %d", len(again), len(pts))
		}
		for r, p := range pts {
			if len(again[r]) != len(p) {
				t.Fatalf("row %d: re-read %d fields, want %d", r, len(again[r]), len(p))
			}
			for i, x := range p {
				if math.Float64bits(again[r][i]) != math.Float64bits(x) {
					t.Fatalf("row %d field %d: %v re-read as %v", r, i, x, again[r][i])
				}
			}
		}
	})
}
