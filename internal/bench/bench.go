// Package bench provides the small experiment-harness substrate shared by
// cmd/experiments and the root benchmark suite: aligned-text tables,
// number formatting, timing, and the measurement helpers (effective radius,
// coverage, radius ratios) every experiment of cmd/experiments reports.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
	"privcluster/internal/workload"
)

// Table accumulates rows and renders them as an aligned text table with a
// title and optional note — the format cmd/experiments prints.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with F for floats, plain
// Sprint otherwise. It panics on arity mismatch (a harness bug).
func (t *Table) AddRow(cells ...any) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("bench: row arity %d, table has %d columns", len(cells), len(t.Headers)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = F(v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	line(t.Headers)
	for i, w := range widths {
		b.WriteString("|")
		b.WriteString(strings.Repeat("-", w+2))
		if i == len(widths)-1 {
			b.WriteString("|\n")
		}
	}
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// F formats a float compactly: integers without decimals, small values with
// three significant digits.
func F(x float64) string {
	a := x
	if a < 0 {
		a = -a
	}
	if a >= 1e6 || (a < 1e-3 && a > 0) {
		return fmt.Sprintf("%.2e", x)
	}
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	if a >= 100 {
		return fmt.Sprintf("%.1f", x)
	}
	return fmt.Sprintf("%.3f", x)
}

// Time measures one execution of f.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// EffectiveRadius returns the smallest radius around center that covers at
// least want of the points — the honest post-hoc measure of how tight a
// released ball really is (the released radius is a worst-case formula).
func EffectiveRadius(points []vec.Vector, center vec.Vector, want int) float64 {
	if want < 1 || len(points) == 0 {
		return 0
	}
	if want > len(points) {
		want = len(points)
	}
	ds := make([]float64, len(points))
	for i, p := range points {
		ds[i] = p.Dist(center)
	}
	sort.Float64s(ds)
	return ds[want-1]
}

// Coverage returns the fraction of points inside any of the balls.
func Coverage(points []vec.Vector, balls []geometry.Ball) float64 {
	if len(points) == 0 {
		return 0
	}
	covered := 0
	for _, p := range points {
		for _, b := range balls {
			if b.Contains(p) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(points))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// IndexWorkload is the canonical dataset the BallIndex benchmarks (root
// bench_test.go) run both backends on: a planted ball holding 60% of the
// points at radius 0.02 with uniform background, t = n/2 — the same shape
// the stage micro-benchmarks use, reproducible from the seed alone.
func IndexWorkload(seed int64, n, d int, grid geometry.Grid) ([]vec.Vector, int, error) {
	rng := rand.New(rand.NewSource(seed))
	inst, err := workload.PlantedBall{N: n, ClusterSize: 3 * n / 5, Radius: 0.02}.Generate(rng, grid)
	if err != nil {
		return nil, 0, err
	}
	return inst.Points, n / 2, nil
}

// Mean returns the mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
