package main

import (
	"sync"
	"time"
)

var calibSink uint64

// calibrate times a fixed pure-CPU loop (about 50 ms) and returns its speed
// in million iterations per second. It touches no memory and makes no
// calls, so it moves only when the machine itself runs faster or slower.
func calibrate() float64 {
	const iters = 25_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0)
	calibSink += x
	return iters / el.Seconds() / 1e6
}

type calibMsg struct {
	hop  int
	pad  []int
	from string
}

// nominalSpeed is what speedProbe reads on the box the benchmark was written
// on when that box is quiet. Time-based end-to-end metrics are reported at
// this machine speed; see README.md, "Machine speed".
const nominalSpeed = 280.0

// speedExponent is how strongly the workloads' pace follows the probe's.
// Fitted over 70 runs, the slope of log(measured value) on log(probe speed)
// is 0.5 for fabric_sat (batched, the most CPU-bound), 0.7-0.9 for tcp_sat,
// 0.9 for sharded_cross and 0.9-1.2 for tcp_pingpong (all wake-ups). One
// exponent in the middle leaves each workload at most a quarter of the
// machine's drift instead of all of it.
const speedExponent = 0.75

// speedProbe times a fixed ring of goroutines passing small heap messages
// through buffered channels and filing them in maps: the mix of goroutine
// wake-ups, allocation and cache misses the stack under test lives on. It
// is the benchmark's own code and calls nothing of the repository, so it
// moves with the machine and not with the code under test. Returns thousand
// hops per second (about 0.35 s per call).
func speedProbe() float64 {
	const (
		stages   = 4
		inFlight = 16
		hops     = 100_000
	)
	chans := make([]chan *calibMsg, stages)
	for i := range chans {
		chans[i] = make(chan *calibMsg, 64)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range chans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seen := map[int]*calibMsg{}
			for m := range chans[i] {
				seen[m.hop] = m
				if len(seen) > 4096 {
					seen = map[int]*calibMsg{}
				}
				if m.hop >= hops {
					// Hand the stop marker to every stage that is still
					// listening, then leave.
					for _, c := range chans {
						select {
						case c <- m:
						default:
						}
					}
					return
				}
				chans[(i+1)%stages] <- &calibMsg{hop: m.hop + 1, pad: make([]int, 8), from: m.from}
			}
		}(i)
	}
	for k := 0; k < inFlight; k++ {
		chans[0] <- &calibMsg{from: "calib"}
	}
	wg.Wait()
	return hops / time.Since(t0).Seconds() / 1e3
}
