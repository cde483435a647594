package main

import "math/rand"

// The four operation types of service_read, in the shares the workload
// fixes: half the traffic resubmits a finished spec (the result cache),
// the rest reads reports, telemetry and listings.
const (
	readResubmit = iota
	readReport
	readSeries
	readList
	readKinds
)

// readShares is the cumulative distribution of the mix.
var readShares = [readKinds]float64{0.50, 0.70, 0.90, 1.00}

// readOp is one scheduled read: its type and the preloaded run it
// targets.
type readOp struct {
	kind   int
	target int
}

// readSchedule draws n operations over targets preloaded runs from the
// seed. The same seed gives the same schedule; clients walk it in order
// and wrap around, so the mix does not depend on how fast they run.
func readSchedule(seed int64, n, targets int) []readOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([]readOp, n)
	for i := range out {
		u := rng.Float64()
		k := 0
		for u >= readShares[k] {
			k++
		}
		out[i] = readOp{kind: k, target: rng.Intn(targets)}
	}
	return out
}

// shuffled returns the numbers 0..n-1 in a seed-determined order: how
// the seed orders a fixed operation pool.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
