//go:build race

package serve

// raceEnabled reports that the race detector is active: sync.Pool drops
// items at random under it (the predictor pools its sequences and pass
// scratch), so allocation counts are not reproducible from run to run.
const raceEnabled = true
