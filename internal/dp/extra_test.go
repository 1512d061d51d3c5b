package dp

import (
	"math"
	"strings"
	"testing"
)

func TestParamsString(t *testing.T) {
	s := Params{Epsilon: 0.5, Delta: 1e-6}.String()
	if !strings.Contains(s, "0.5") || !strings.Contains(s, "1e-06") {
		t.Errorf("String = %q", s)
	}
}

func TestParamsScale(t *testing.T) {
	p := Params{Epsilon: 2, Delta: 0.1}.Scale(0.25)
	if p.Epsilon != 0.5 || math.Abs(p.Delta-0.025) > 1e-15 {
		t.Errorf("Scale = %+v", p)
	}
}

func TestComposeAdvancedPanics(t *testing.T) {
	cases := []func(){
		func() { ComposeAdvanced(Params{1, 0}, 0, 0.1) },
		func() { ComposeAdvanced(Params{1, 0}, 5, 0) },
		func() { ComposeAdvanced(Params{1, 0}, 5, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLaplaceMechanismPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic on zero sensitivity")
		}
	}()
	LaplaceMechanism(nil, 1, 0, 1)
}

func TestAccountantSlackTolerance(t *testing.T) {
	// Spending the budget in ten float-imprecise slices must still fit.
	a, err := NewAccountant(Params{Epsilon: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Spend(Params{Epsilon: 0.1, Delta: 1e-7}); err != nil {
			t.Fatalf("slice %d rejected: %v", i, err)
		}
	}
	if spent := a.Spent(); math.Abs(spent.Epsilon-1) > 1e-9 {
		t.Errorf("Spent = %+v", spent)
	}
}
