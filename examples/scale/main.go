// Command scale demonstrates the scalable ball-index backend: it plants a
// cluster among 200,000 points — a size at which the exact Θ(n²) distance
// matrix would need ≈ 320 GB — and locates it with FindCluster under the
// automatic index policy, printing the time and the recovered ball.
//
// Run with:
//
//	go run ./examples/scale
//	go run ./examples/scale -n 6000   # small, CI-sized
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"privcluster"
)

func main() {
	nFlag := flag.Int("n", 200000, "number of points (cluster and target scale with it)")
	flag.Parse()
	var (
		n       = *nFlag
		cluster = 3 * n / 5
		t       = n / 2
	)
	rng := rand.New(rand.NewSource(1))
	points := make([]privcluster.Point, 0, n)
	for i := 0; i < cluster; i++ {
		points = append(points, privcluster.Point{
			0.42 + rng.Float64()*0.03,
			0.61 + rng.Float64()*0.03,
		})
	}
	for i := cluster; i < n; i++ {
		points = append(points, privcluster.Point{rng.Float64(), rng.Float64()})
	}

	fmt.Printf("locating a %d-point cluster among n=%d points (ε=1, δ=1e-6)\n", t, n)
	start := time.Now()
	c, err := privcluster.FindCluster(points, t, privcluster.Options{
		Seed: 7,
		// IndexAuto (the default) already selects the scalable backend at
		// this size; spelled out here for documentation value.
		IndexPolicy: privcluster.IndexScalable,
		// Workers caps the parallel count passes (index and box partition);
		// 0 means GOMAXPROCS. Parallelism never changes the seeded result.
		Workers: 0,
	})
	if err != nil {
		log.Fatal("failed: ", err)
	}
	fmt.Printf("found in %v (no Θ(n²) distance matrix — that would be ≈ %.0f GB)\n",
		time.Since(start).Round(time.Millisecond), float64(n)*float64(n)*8/1e9)
	fmt.Printf("center   (%.4f, %.4f)\n", c.Center[0], c.Center[1])
	fmt.Printf("radius   %.4f (GoodRadius raw estimate %.4f)\n", c.Radius, c.RawRadius)
	fmt.Printf("captures %d points (target t=%d)\n", c.Count(points), t)
}
