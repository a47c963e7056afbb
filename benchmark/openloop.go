package main

import (
	"sync"
	"time"
)

// olSample is one open-loop request's timeline, as offsets from the loop
// start: when the schedule said to send it, when the generator actually
// did, and when the answer came back.
type olSample struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, not the send time: when the system
// (or the generator) stalls, the requests that were due during the stall
// carry the wait they would have imposed on independent users. Timing from
// the actual send would let a stall vanish from every request but one —
// the coordinated omission ROADMAP aim 3 calls out.
func (s olSample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind schedule the generator sent the request.
func (s olSample) lateness() time.Duration { return s.sent - s.due }

// openLoop is a fixed-rate load generator: one dispatcher walks the
// schedule due(i) = i/rate and starts each request on its own goroutine, so
// a slow answer never delays the next send. At most n goroutines exist (one
// per scheduled request), all joined before run returns.
type openLoop struct {
	rate float64 // requests per second
	n    int     // requests to send
	// sleepUntil blocks until the wall clock reaches t. Nil means
	// time.Sleep; tests inject a generator stall here.
	sleepUntil func(t time.Time)
}

// run sends the n scheduled requests through do and returns one sample per
// request, in schedule order.
func (o openLoop) run(do func(i int)) []olSample {
	sleepUntil := o.sleepUntil
	if sleepUntil == nil {
		sleepUntil = func(t time.Time) {
			if d := time.Until(t); d > 0 {
				time.Sleep(d)
			}
		}
	}
	samples := make([]olSample, o.n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.n; i++ {
		due := time.Duration(float64(i) / o.rate * float64(time.Second))
		sleepUntil(start.Add(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := &samples[i]
			s.due = due
			s.sent = time.Since(start)
			do(i)
			s.done = time.Since(start)
		}(i)
	}
	wg.Wait()
	return samples
}
