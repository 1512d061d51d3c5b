// Outlier screening (the §1.1 motivation): locate a ball holding ~90% of
// the data privately, treat everything outside as outliers, and show how
// screening slashes the noise a downstream private mean needs.
//
// The global-sensitivity mean over the whole unit square must add noise
// proportional to the domain diameter; after privately restricting to the
// found ball, the sensitivity — and hence the noise — shrinks by the ratio
// of the diameters (the paper's "dramatic improvement in accuracy").
//
//	go run ./examples/outliers
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"privcluster"
)

func main() {
	const (
		n         = 2000
		outlierFr = 0.1
		radius    = 0.03
		epsilon   = 2.0
	)
	rng := rand.New(rand.NewSource(11))

	// 90% inliers in a tight ball, 10% scattered outliers.
	trueCenter := privcluster.Point{0.62, 0.38}
	points := make([]privcluster.Point, 0, n)
	inliers := int(float64(n) * (1 - outlierFr))
	for i := 0; i < inliers; i++ {
		points = append(points, privcluster.Point{
			trueCenter[0] + (rng.Float64()*2-1)*radius,
			trueCenter[1] + (rng.Float64()*2-1)*radius,
		})
	}
	for i := inliers; i < n; i++ {
		points = append(points, privcluster.Point{rng.Float64(), rng.Float64()})
	}

	// Step 1: private outlier screen — a ball holding ≈ 85% of the data.
	// (Half the ε budget goes here, half to the mean below.)
	ball, err := privcluster.FindCluster(points, int(0.85*n), privcluster.Options{
		Epsilon: epsilon / 2, Delta: 0.05, Seed: 3, GridSize: 1 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	var screened []privcluster.Point
	for _, p := range points {
		if ball.Contains(p) {
			screened = append(screened, p)
		}
	}

	// Step 2: private means. Global sensitivity of a mean over a region of
	// diameter D is D/n per coordinate, so the Laplace noise scale is
	// D/(n·ε) — directly proportional to the region diameter.
	noisyMean := func(pts []privcluster.Point, diameter float64) privcluster.Point {
		out := privcluster.Point{0, 0}
		for _, p := range pts {
			out[0] += p[0]
			out[1] += p[1]
		}
		scale := diameter / (float64(len(pts)) * (epsilon / 2) / 2) // ε/2 split over 2 coords
		for c := range out {
			out[c] = out[c]/float64(len(pts)) + laplace(rng, scale)
		}
		return out
	}
	errTo := func(p privcluster.Point) float64 {
		return math.Hypot(p[0]-trueCenter[0], p[1]-trueCenter[1])
	}

	rawDiam := math.Sqrt2 // unit square
	screenedDiam := 2 * ball.Radius

	fmt.Println("private outlier screening (§1.1)")
	fmt.Printf("  screen ball: radius %.4f holding %d/%d points\n", ball.Radius, len(screened), n)
	fmt.Printf("  unscreened private mean (noise ∝ %.3f): error %.4f\n", rawDiam, errTo(noisyMean(points, rawDiam)))
	fmt.Printf("  screened private mean   (noise ∝ %.3f): error %.4f\n", screenedDiam, errTo(noisyMean(screened, screenedDiam)))
	fmt.Printf("  noise-scale reduction: %.1f×\n", rawDiam/screenedDiam)
}

func laplace(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	for u == -0.5 { // a draw of at most 2⁻⁵⁵: ln(0) would be −Inf
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}
