package vec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV parses the module's point-file format: one point per line,
// comma-separated float64 coordinates (surrounding spaces allowed), blank
// lines and #-comment lines skipped. Rows are returned as parsed; checking
// that they share one dimension is the caller's job. An input with no
// points is an error.
func ReadCSV(r io.Reader) ([][]float64, error) {
	var points [][]float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		p := make([]float64, len(fields))
		for i, f := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			p[i] = x
		}
		points = append(points, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("no points in input")
	}
	return points, nil
}
