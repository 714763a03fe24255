package main

import (
	"runtime"
	"time"
)

// setupRounds is how many times a run sets its workload up. setup_s is the
// median, so one slow round (host steal, a cold page cache) does not move it.
const setupRounds = 7

// setupRepeated sets a workload up setupRounds times, tearing down every
// round but the last, and returns the last round's state with every
// round's time in seconds. A round is everything a run does before its first
// measured operation: generating inputs, starting the daemon, uploading,
// warming caches and computing correctness baselines.
func setupRepeated[T any](setup func(round int) (T, error), teardown func(T)) (T, []float64, error) {
	var state T
	times := make([]float64, 0, setupRounds)
	goroutines := runtime.NumGoroutine()
	for r := 0; r < setupRounds; r++ {
		settle(goroutines)
		start := time.Now()
		s, err := setup(r)
		if err != nil {
			return state, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if r < setupRounds-1 {
			teardown(s)
			continue
		}
		state = s
	}
	return state, times, nil
}

// settle waits, for at most two seconds, until the goroutines a torn-down
// round left (connection loops, daemon workers) have exited, then collects
// its garbage, so every round starts from the state the first one did.
func settle(goroutines int) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
}
