package main

import (
	"sync"
	"testing"
	"time"
)

func countSlow(samples []olSample, over time.Duration) int {
	n := 0
	for _, s := range samples {
		if s.latency() >= over {
			n++
		}
	}
	return n
}

// A 50 ms stall in the system under test must show in the latency of every
// request that was due while it lasted — not in one request, as it would if
// the generator waited for the stalled answer before sending the next.
func TestOpenLoopServerStallReachesLaterRequests(t *testing.T) {
	var server sync.Mutex // one request at a time, like a batcher mid-launch
	samples := openLoop{rate: 1000, n: 300}.run(func(i int) {
		server.Lock()
		if i == 50 {
			time.Sleep(50 * time.Millisecond)
		}
		server.Unlock()
	})
	// ~50 requests fall due during the stall; those due in its first 40 ms
	// wait at least 10 ms.
	if slow := countSlow(samples, 10*time.Millisecond); slow < 30 {
		t.Errorf("%d requests saw the 50 ms stall, want about 40: the stall vanished", slow)
	}
	if got := countSlow(samples[200:], 10*time.Millisecond); got > 50 {
		t.Errorf("%d of the last 100 requests, due long after the stall, are still slow", got)
	}
}

// A stall in the generator itself is charged too: requests sent late are
// timed from when they were due, and the lateness is reported.
func TestOpenLoopGeneratorStallIsCharged(t *testing.T) {
	ol := openLoop{rate: 1000, n: 300}
	calls := 0
	ol.sleepUntil = func(at time.Time) {
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if calls++; calls == 51 {
			time.Sleep(50 * time.Millisecond) // the dispatcher oversleeps before request 50
		}
	}
	samples := ol.run(func(int) {})
	s := samples[50]
	if s.lateness() < 45*time.Millisecond {
		t.Fatalf("request 50 sent %v late, want >= 45ms", s.lateness())
	}
	if s.latency() < 45*time.Millisecond {
		t.Errorf("request 50 latency %v hides the generator stall (service time %v)", s.latency(), s.done-s.sent)
	}
	if s.done-s.sent > 5*time.Millisecond {
		t.Errorf("service time %v: the stall was charged to the server, not the schedule", s.done-s.sent)
	}
	if slow := countSlow(samples, 10*time.Millisecond); slow < 30 {
		t.Errorf("%d requests carry the 50 ms generator stall, want about 40", slow)
	}
	for i, s := range samples {
		if want := time.Duration(i) * time.Millisecond; s.due != want {
			t.Fatalf("request %d due at %v, want %v: the schedule moved", i, s.due, want)
		}
	}
}
