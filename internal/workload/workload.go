// Package workload generates the synthetic datasets every experiment of
// cmd/experiments runs on: planted-ball instances (the 1-cluster problem's
// canonical input), multi-cluster mixtures (k-cover and the map-search
// motivation of §1.1), outlier scenarios (§1.1's outlier-removal
// motivation), the adversarial sensitivity instance of §3.1, and sorted
// 1-D instances for the interior-point reduction of §5.
//
// All generators are deterministic given the *rand.Rand and snap their
// output onto the provided grid so datasets are valid 1-cluster inputs.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// PlantedBall describes a dataset with one planted cluster: ClusterSize
// points uniform in a ball of radius Radius around a (random or fixed)
// center, and N−ClusterSize background points uniform in the unit cube.
type PlantedBall struct {
	N           int
	ClusterSize int
	Radius      float64
	// Center is the planted center; nil draws one uniformly from the cube's
	// middle region (so the planted ball fits inside the cube).
	Center vec.Vector
}

// Instance is a generated dataset along with its ground truth.
type Instance struct {
	Points []vec.Vector
	// TrueCenter/TrueRadius describe the planted ball (ground truth for
	// radius-ratio measurements; r_opt for t ≤ ClusterSize is ≤ TrueRadius).
	TrueCenter vec.Vector
	TrueRadius float64
}

// Generate draws the instance on the given grid.
func (p PlantedBall) Generate(rng *rand.Rand, grid geometry.Grid) (Instance, error) {
	if p.ClusterSize > p.N || p.ClusterSize < 0 {
		return Instance{}, fmt.Errorf("workload: cluster size %d out of [0, %d]", p.ClusterSize, p.N)
	}
	if p.Radius < 0 || p.Radius > 0.5 {
		return Instance{}, fmt.Errorf("workload: planted radius %v out of [0, 0.5]", p.Radius)
	}
	d := grid.Dim
	center := p.Center
	if center == nil {
		center = make(vec.Vector, d)
		for j := range center {
			center[j] = 0.25 + 0.5*rng.Float64()
		}
	}
	if center.Dim() != d {
		return Instance{}, fmt.Errorf("workload: center dimension %d, want %d", center.Dim(), d)
	}
	pts := make([]vec.Vector, 0, p.N)
	for i := 0; i < p.ClusterSize; i++ {
		pts = append(pts, grid.Quantize(uniformInBall(rng, center, p.Radius)))
	}
	for i := p.ClusterSize; i < p.N; i++ {
		pts = append(pts, grid.Quantize(uniformInCube(rng, d)))
	}
	shuffle(rng, pts)
	return Instance{Points: pts, TrueCenter: center, TrueRadius: p.Radius}, nil
}

// MultiCluster draws k planted balls of equal size (N/k points each, any
// remainder going to uniform background noise).
type MultiCluster struct {
	N       int
	K       int
	Radius  float64
	Spread  float64 // minimum pairwise center distance; 0 = best effort
	NoiseFr float64 // fraction of N that is uniform background
}

// MultiInstance is a generated multi-cluster dataset with its ground truth.
type MultiInstance struct {
	Points  []vec.Vector
	Centers []vec.Vector
	Radius  float64
}

// Generate draws the multi-cluster instance.
func (m MultiCluster) Generate(rng *rand.Rand, grid geometry.Grid) (MultiInstance, error) {
	if m.K < 1 || m.N < m.K {
		return MultiInstance{}, fmt.Errorf("workload: invalid multi-cluster N=%d K=%d", m.N, m.K)
	}
	if m.NoiseFr < 0 || m.NoiseFr >= 1 {
		return MultiInstance{}, fmt.Errorf("workload: noise fraction %v out of [0,1)", m.NoiseFr)
	}
	d := grid.Dim
	centers := make([]vec.Vector, 0, m.K)
	for attempt := 0; len(centers) < m.K; attempt++ {
		if attempt > 1000*m.K {
			return MultiInstance{}, fmt.Errorf("workload: could not place %d centers with spread %v", m.K, m.Spread)
		}
		c := make(vec.Vector, d)
		for j := range c {
			c[j] = 0.15 + 0.7*rng.Float64()
		}
		ok := true
		for _, prev := range centers {
			if c.Dist(prev) < m.Spread {
				ok = false
				break
			}
		}
		if ok {
			centers = append(centers, c)
		}
	}
	noise := int(float64(m.N) * m.NoiseFr)
	perCluster := (m.N - noise) / m.K
	pts := make([]vec.Vector, 0, m.N)
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			pts = append(pts, grid.Quantize(uniformInBall(rng, c, m.Radius)))
		}
	}
	for len(pts) < m.N {
		pts = append(pts, grid.Quantize(uniformInCube(rng, d)))
	}
	shuffle(rng, pts)
	return MultiInstance{Points: pts, Centers: centers, Radius: m.Radius}, nil
}

// Outliers draws the §1.1 outlier scenario: (1−OutlierFr)·N points in a
// tight ball, the rest scattered uniformly.
type Outliers struct {
	N         int
	OutlierFr float64
	Radius    float64
}

// Generate draws the outlier instance.
func (o Outliers) Generate(rng *rand.Rand, grid geometry.Grid) (Instance, error) {
	if o.OutlierFr < 0 || o.OutlierFr >= 1 {
		return Instance{}, fmt.Errorf("workload: outlier fraction %v out of [0,1)", o.OutlierFr)
	}
	inliers := int(float64(o.N) * (1 - o.OutlierFr))
	return PlantedBall{N: o.N, ClusterSize: inliers, Radius: o.Radius}.Generate(rng, grid)
}

// AdversarialSensitivity returns the §3.1 instance demonstrating that the
// uncapped max-ball-count has sensitivity Ω(t): t/2 copies of the origin,
// t/2 copies of 2·e₁, and a single point at e₁ (scaled into the unit cube).
// The scale maps the construction's coordinates 0, 1, 2 to 0, 0.5, 1.
func AdversarialSensitivity(grid geometry.Grid, t int) ([]vec.Vector, error) {
	if grid.Dim < 1 || t < 2 {
		return nil, fmt.Errorf("workload: adversarial instance needs dim ≥ 1 and t ≥ 2")
	}
	d := grid.Dim
	mk := func(x float64) vec.Vector {
		v := make(vec.Vector, d)
		v[0] = x
		return grid.Quantize(v)
	}
	var pts []vec.Vector
	for i := 0; i < t/2; i++ {
		pts = append(pts, mk(0))
	}
	for i := 0; i < t/2; i++ {
		pts = append(pts, mk(1))
	}
	pts = append(pts, mk(0.5))
	return pts, nil
}

// SortedValues draws m sorted 1-D values for the interior-point reduction:
// a tight middle mass with Spread, padded by Pad extreme values on each
// side.
func SortedValues(rng *rand.Rand, m, pad int, center, spread float64) ([]float64, error) {
	if m <= 2*pad {
		return nil, fmt.Errorf("workload: m=%d too small for pad=%d", m, pad)
	}
	vals := make([]float64, 0, m)
	for i := 0; i < pad; i++ {
		vals = append(vals, math.Max(0, center-spread*10-rng.Float64()*0.1))
	}
	for i := 0; i < m-2*pad; i++ {
		vals = append(vals, clamp01(center+(rng.Float64()*2-1)*spread))
	}
	for i := 0; i < pad; i++ {
		vals = append(vals, math.Min(1, center+spread*10+rng.Float64()*0.1))
	}
	return vals, nil
}

func uniformInBall(rng *rand.Rand, center vec.Vector, radius float64) vec.Vector {
	d := center.Dim()
	// Rejection sampling from the bounding cube; fine for the small d used
	// in experiments (acceptance drops with d, so fall back to a scaled
	// Gaussian direction for d > 12).
	if d <= 12 {
		for {
			p := make(vec.Vector, d)
			var norm2 float64
			for j := range p {
				x := (rng.Float64()*2 - 1) * radius
				p[j] = x
				norm2 += x * x
			}
			if norm2 <= radius*radius {
				for j := range p {
					p[j] = clamp01(center[j] + p[j])
				}
				return p
			}
		}
	}
	dir := make(vec.Vector, d)
	var norm float64
	for j := range dir {
		dir[j] = rng.NormFloat64()
		norm += dir[j] * dir[j]
	}
	norm = math.Sqrt(norm)
	u := math.Pow(rng.Float64(), 1/float64(d)) * radius
	out := make(vec.Vector, d)
	for j := range out {
		out[j] = clamp01(center[j] + dir[j]/norm*u)
	}
	return out
}

func uniformInCube(rng *rand.Rand, d int) vec.Vector {
	p := make(vec.Vector, d)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

func shuffle(rng *rand.Rand, pts []vec.Vector) {
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
}
