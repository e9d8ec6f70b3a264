package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: their speed swings by a
// third over minutes (decode_heavy measured 23.6k to 34.2k tokens/s in twelve
// consecutive 20 s runs of one binary). Every metric is reported as measured;
// so that a reader can tell a slow phase from a slow commit, the harness also
// measures the machine. While the fleet is idle, every CPU runs a fixed piece
// of cache-resident floating-point work that belongs to the harness, and the
// machine's speed is the reference time of a piece over the median time the
// run's pieces took. It is context, never a correction: a saturated fleet was
// measured to slow down two to three times as much as the piece does.

// refPiece is what one piece takes in the fast phase of the 2-vCPU VM the
// benchmark was sized on. It only fixes the scale.
const refPiece = time.Millisecond

// piecesPerProbe is how many pieces each CPU runs per probe, about 30 ms.
const piecesPerProbe = 24

var (
	pieceA, pieceB [4096]float64
	pieceSink      float64
)

func init() {
	for i := range pieceA {
		pieceA[i], pieceB[i] = float64(i), float64(len(pieceA)-i)
	}
}

// piece times the fixed work: 400 dot products of two 32 KiB vectors.
func piece() (time.Duration, float64) {
	start := time.Now()
	s := 0.0
	for rep := 0; rep < 400; rep++ {
		for i := range pieceA {
			s += pieceA[i] * pieceB[i]
		}
	}
	return time.Since(start), s
}

// calibration collects the piece times of one run.
type calibration struct {
	mu     sync.Mutex
	pieces []float64
}

// probe runs piecesPerProbe pieces on every CPU at once, as the fleet uses
// every CPU at once.
func (c *calibration) probe() {
	var wg sync.WaitGroup
	for cpu := 0; cpu < runtime.GOMAXPROCS(0); cpu++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < piecesPerProbe; i++ {
				d, s := piece()
				c.mu.Lock()
				c.pieces = append(c.pieces, float64(d))
				pieceSink += s
				c.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// speed is the machine's speed over the run as a share of the reference
// machine's: below 1 when pieces took longer than refPiece.
func (c *calibration) speed() float64 {
	return float64(refPiece) / median(c.pieces)
}
