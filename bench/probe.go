package main

import "time"

// The reference host is a shared two-vCPU virtual machine whose speed
// drifts by a third over minutes (other tenants, not this program): the
// same binary on the same seed ran sim-sampled at 24 M cycles/s in one
// ten-run set and 17.5 M in the next. A bound of a quarter cannot hold
// against that, so the simulation workloads report their times at the
// speed of a reference host: between timed operations the benchmark times
// a fixed kernel of its own, which no change to the repository can speed
// up or slow down, and scales the run's times by how fast the kernel ran
// against probeRefRate. Drift of the host cancels; a change to the
// program does not.
//
// Only the simulation workloads are scaled. A simulation is one thread of
// branchy integer code over a working set the private caches mostly hold,
// like the kernel. The sweep, serve and fleet workloads spread their time
// over many short simulations, JSON and HTTP; the kernel tracks them
// poorly, and scaling them widened serve's ten-run spread from 6 % to
// 22 % (with the first version's 8 MiB kernel; not repeated with this
// one). Their raw times drift less (a tenth to a seventh between sets) and
// are reported raw.
//
// The kernel's buffer fits the private caches on purpose. Ninety
// ten-second processes, each alternating sim-attack repetitions with four
// candidate kernels, gave log-log correlations of the repetition's time
// with the kernel's of 0.38 (8 MiB buffer), 0.55 (1 MiB), 0.88 (64 KiB)
// and 0.88 (no loads at all), with slopes 0.3, 0.5, 0.86 and 0.83. An
// 8 MiB buffer measures the neighbours' use of the shared cache, which
// the simulator hardly feels: its index swung 1.29-1.83 between runs
// whose raw times stayed within 427-496 ms, and widened their spread from
// 4 % to 9 % where the 64 KiB one narrowed it to 3 %.

const (
	probeWords = 1 << 13 // 64 KiB
	probeSteps = 1 << 21 // about 8 ms a reading
	// probeRefRate is the kernel's rate, steps per second, on the
	// reference host at its usual speed; it only fixes the scale, so that
	// reported numbers stay close to measured ones there.
	probeRefRate = 2.5e8
)

// probe is the fixed kernel: dependent loads at scattered addresses of a
// cache-resident buffer, with a little integer arithmetic between them.
type probe struct {
	buf  []uint64
	idx  uint64
	sink uint64
}

func newProbe() *probe {
	p := &probe{buf: make([]uint64, probeWords)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.buf[i] = x
	}
	return p
}

// run executes the kernel once and returns its rate in steps per second.
func (p *probe) run() float64 {
	start := time.Now()
	idx, acc := p.idx, p.sink
	for i := 0; i < probeSteps; i++ {
		v := p.buf[idx&(probeWords-1)]
		acc += v ^ (acc << 7) ^ (acc >> 9)
		idx = idx*6364136223846793005 + v + acc
	}
	p.idx, p.sink = idx, acc
	return probeSteps / time.Since(start).Seconds()
}

// hostSpeed collects readings of the kernel's rate over a run. A single
// reading is itself noisy, so a run's times are
// scaled by one index, the median of all its readings: host phases last
// minutes, a run seconds. A nil *hostSpeed takes no readings and scales
// by 1.
type hostSpeed struct {
	probe    *probe
	readings []float64
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{probe: newProbe()}
	h.probe.run() // first touch of the buffer
	return h
}

// sample takes two readings; workloads call it between timed operations.
func (h *hostSpeed) sample() {
	if h != nil {
		h.readings = append(h.readings, h.probe.run()/probeRefRate, h.probe.run()/probeRefRate)
	}
}

// index is the run's speed index: wall times are multiplied by it.
func (h *hostSpeed) index() float64 {
	if h == nil || len(h.readings) == 0 {
		return 1
	}
	return median(h.readings)
}
