package workload

import (
	"math/rand"
	"testing"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

func grid(t *testing.T, size int64, dim int) geometry.Grid {
	t.Helper()
	g, err := geometry.NewGrid(size, dim)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlantedBallShapeAndGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := grid(t, 4096, 3)
	inst, err := PlantedBall{N: 500, ClusterSize: 200, Radius: 0.05}.Generate(rng, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Points) != 500 {
		t.Fatalf("n = %d", len(inst.Points))
	}
	for i, p := range inst.Points {
		if p.Dim() != 3 {
			t.Fatalf("point %d dim %d", i, p.Dim())
		}
		if !g.Quantize(p).Equal(p) { // a grid point is a fixed point of Quantize
			t.Fatalf("point %d off grid: %v", i, p)
		}
	}
	// The planted ball (with grid-snap slack) must hold ≥ ClusterSize points.
	slack := 2 * g.Step()
	got := geometry.CountInBall(inst.Points, inst.TrueCenter, inst.TrueRadius+slack)
	if got < 200 {
		t.Errorf("planted ball holds %d < 200 points", got)
	}
}

func TestPlantedBallValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := grid(t, 64, 2)
	if _, err := (PlantedBall{N: 10, ClusterSize: 20, Radius: 0.1}).Generate(rng, g); err == nil {
		t.Error("cluster > n accepted")
	}
	if _, err := (PlantedBall{N: 10, ClusterSize: 5, Radius: 0.9}).Generate(rng, g); err == nil {
		t.Error("radius > 0.5 accepted")
	}
	if _, err := (PlantedBall{N: 10, ClusterSize: 5, Radius: 0.1, Center: vec.Of(0.5)}).Generate(rng, g); err == nil {
		t.Error("wrong-dim center accepted")
	}
}

func TestPlantedBallFixedCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := grid(t, 4096, 2)
	c := vec.Of(0.3, 0.7)
	inst, err := PlantedBall{N: 100, ClusterSize: 100, Radius: 0.02, Center: c}.Generate(rng, g)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.TrueCenter.Equal(c) {
		t.Errorf("TrueCenter = %v", inst.TrueCenter)
	}
	for _, p := range inst.Points {
		if p.Dist(c) > 0.02+2*g.Step() {
			t.Fatalf("cluster point %v outside planted ball", p)
		}
	}
}

func TestMultiClusterStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := grid(t, 4096, 2)
	mi, err := MultiCluster{N: 600, K: 3, Radius: 0.03, Spread: 0.3, NoiseFr: 0.1}.Generate(rng, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(mi.Points) != 600 || len(mi.Centers) != 3 {
		t.Fatalf("points %d centers %d", len(mi.Points), len(mi.Centers))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if d := mi.Centers[i].Dist(mi.Centers[j]); d < 0.3 {
				t.Errorf("centers %d,%d only %v apart", i, j, d)
			}
		}
	}
	// Each cluster region should hold roughly (600·0.9)/3 = 180 points.
	for i, c := range mi.Centers {
		if got := geometry.CountInBall(mi.Points, c, 0.03+2*g.Step()); got < 150 {
			t.Errorf("cluster %d holds only %d points", i, got)
		}
	}
}

func TestMultiClusterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := grid(t, 64, 2)
	if _, err := (MultiCluster{N: 2, K: 5}).Generate(rng, g); err == nil {
		t.Error("N < K accepted")
	}
	if _, err := (MultiCluster{N: 10, K: 2, NoiseFr: 1.5}).Generate(rng, g); err == nil {
		t.Error("noise fraction ≥ 1 accepted")
	}
	if _, err := (MultiCluster{N: 100, K: 30, Radius: 0.01, Spread: 5}).Generate(rng, g); err == nil {
		t.Error("impossible spread accepted")
	}
}

func TestOutliersScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := grid(t, 4096, 2)
	inst, err := Outliers{N: 1000, OutlierFr: 0.1, Radius: 0.04}.Generate(rng, g)
	if err != nil {
		t.Fatal(err)
	}
	got := geometry.CountInBall(inst.Points, inst.TrueCenter, inst.TrueRadius+2*g.Step())
	if got < 900 {
		t.Errorf("inlier ball holds %d < 900", got)
	}
	if _, err := (Outliers{N: 10, OutlierFr: 1}).Generate(rng, g); err == nil {
		t.Error("outlier fraction 1 accepted")
	}
}

func TestAdversarialSensitivityShape(t *testing.T) {
	g := grid(t, 1024, 2)
	pts, err := AdversarialSensitivity(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("n = %d, want t+1 = 11", len(pts))
	}
	zeros, mids, ones := 0, 0, 0
	for _, p := range pts {
		switch p[0] {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			mids++
		}
	}
	if zeros != 5 || ones != 5 || mids != 1 {
		t.Errorf("composition %d/%d/%d", zeros, mids, ones)
	}
	if _, err := AdversarialSensitivity(g, 1); err == nil {
		t.Error("t=1 accepted")
	}
}

func TestSortedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals, err := SortedValues(rng, 1000, 100, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1000 {
		t.Fatalf("m = %d", len(vals))
	}
	middle := 0
	for _, v := range vals {
		if v >= 0.45 && v <= 0.55 {
			middle++
		}
	}
	if middle < 800 {
		t.Errorf("middle mass %d < 800", middle)
	}
	if _, err := SortedValues(rng, 10, 5, 0.5, 0.1); err == nil {
		t.Error("m ≤ 2·pad accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	g := grid(t, 1024, 2)
	gen := func() Instance {
		rng := rand.New(rand.NewSource(99))
		inst, _ := PlantedBall{N: 50, ClusterSize: 30, Radius: 0.05}.Generate(rng, g)
		return inst
	}
	a, b := gen(), gen()
	for i := range a.Points {
		if !a.Points[i].Equal(b.Points[i]) {
			t.Fatal("same seed produced different datasets")
		}
	}
}
