package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact the package reproduces must be registered.
	want := []string{
		"table1", "fig1", "fig2", "radius-w", "delta-logstar",
		"intpoint", "sa", "kcover", "ablation", "eps-sweep", "kmeans",
		"tmin", "lowerbound",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("experiment %q missing: %v", id, err)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, index lists %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAllSortedAndNonEmptyMetadata(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Errorf("All() not sorted: %q ≥ %q", all[i-1].ID, all[i].ID)
		}
	}
	for _, e := range all {
		if e.Artifact == "" || e.Run == nil {
			t.Errorf("experiment %q has empty metadata", e.ID)
		}
	}
}

// TestEveryExperimentRunsQuick executes each experiment in quick mode and
// sanity-checks the produced tables. This is the integration test that keeps
// every table cmd/experiments prints regenerable.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(1, true)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Headers) == 0 {
					t.Errorf("table missing title/headers: %+v", tb)
				}
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Errorf("table %q row arity %d vs %d headers", tb.Title, len(row), len(tb.Headers))
					}
				}
				out := tb.Render()
				if !strings.Contains(out, tb.Title) {
					t.Errorf("render of %q missing its title", tb.Title)
				}
			}
		})
	}
}

func TestExperimentsDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipped with -short")
	}
	e, err := Get("fig2")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Run(7, true)
	b := e.Run(7, true)
	if a[0].Render() != b[0].Render() {
		t.Error("same seed produced different tables")
	}
}
