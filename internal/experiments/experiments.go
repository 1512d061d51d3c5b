// Package experiments regenerates every table and figure of the paper's
// evaluation. The registry below indexes them by ID (cmd/experiments -list
// prints it), each entry naming the paper artifact it reproduces. Each
// experiment is a pure function of a seed and a quick flag, returning
// rendered tables; cmd/experiments prints them and the root benchmark
// suite times them.
package experiments

import (
	"fmt"
	"sort"

	"privcluster/internal/bench"
)

// Experiment is a registered, regenerable paper artifact.
type Experiment struct {
	// ID is the flag name (e.g. "table1").
	ID string
	// Artifact names the paper object being reproduced.
	Artifact string
	// Run executes the experiment. quick shrinks sizes for benchmarking.
	Run func(seed int64, quick bool) []*bench.Table
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %v)", id, IDs())
	}
	return e, nil
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns every registered experiment, sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
