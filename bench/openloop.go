package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// olSample is one request of an open-loop run. Times are offsets from the
// start of the run.
type olSample struct {
	due   time.Duration // when the schedule said to send it
	start time.Duration // when a connection actually sent it
	end   time.Duration // when the reply was complete
	ok    bool
}

// latency is timed from the due time, so a stall delays — and is charged
// to — every request that was due during it.
func (s olSample) latency() time.Duration { return s.end - s.due }

// late is how far behind its schedule the generator sent the request.
func (s olSample) late() time.Duration { return s.start - s.due }

// clock is the time source of an open-loop run; tests substitute a fake.
type clock struct {
	now   func() time.Duration
	sleep func(time.Duration)
}

func wallClock() clock {
	begin := time.Now()
	return clock{
		now:   func() time.Duration { return time.Since(begin) },
		sleep: time.Sleep,
	}
}

// openLoop sends n requests on a fixed schedule, one every interval,
// whether or not earlier ones have completed — independent users, not
// callers waiting their turn. conns bounds the connections in flight: a
// request due while all of them are busy starts late, and that wait is
// part of its latency. do sends request i and reports success.
func openLoop(n int, interval time.Duration, conns int, c clock, do func(i int) bool) []olSample {
	samples := make([]olSample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &samples[i]
				s.due = time.Duration(i) * interval
				if wait := s.due - c.now(); wait > 0 {
					c.sleep(wait)
				}
				s.start = c.now()
				s.ok = do(i)
				s.end = c.now()
			}
		}()
	}
	wg.Wait()
	return samples
}
