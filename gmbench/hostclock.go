package main

import "time"

// hostNow is the benchmark's only host-clock read. Everything the simulator
// computes runs on sim.Clock; host time exists here solely to measure what
// the simulator costs the person running it.
func hostNow() time.Time {
	//lint:ignore wallclock the benchmark measures host time spent outside simulated time
	return time.Now()
}

// hostSince returns the host time elapsed since t.
func hostSince(t time.Time) time.Duration { return hostNow().Sub(t) }
