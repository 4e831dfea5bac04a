package memsys

import (
	"runtime"
	"sync"
	"sync/atomic"

	"breakhammer/internal/memctrl"
)

// Worker-pool batch operations.
const (
	opTick uint32 = iota // advance every channel one cycle
	opStop               // shut the workers down
)

// Spin-wait schedule for workers between batches. A cycle batch is
// microseconds of work, so the gap between batches (event drain, LLC and
// core ticks) is short: workers first watch the sequence number in a
// brief hot loop, then yield the processor between polls, and finally
// park on a channel so an idle pool costs nothing. The caller re-arms
// parked workers with a non-blocking token send on every batch.
const (
	hotSpins   = 64   // pure polls before yielding
	yieldSpins = 4096 // runtime.Gosched polls before parking
)

// chanResult is one channel's per-batch output, padded so adjacent
// channels' results do not share a cache line.
type chanResult struct {
	progress bool
	_        [63]byte
}

// tickPool executes cycle batches across min(channels, GOMAXPROCS)
// shares: the calling (simulation) goroutine always runs share 0, and
// shares 1..n-1 run on goroutines started once and reused for every
// batch — no per-cycle spawning. Channels stripe across shares
// (channel c belongs to share c mod shares), so parallelism never
// exceeds the hardware: on a single-core host the pool collapses to
// exactly the serial batch with no handoff at all. Batches are
// published through an atomic sequence number; the remaining-counter
// doubles as the barrier and as the release fence that makes workers'
// writes visible to the caller. The drain that fixes the observable
// event order happens outside the pool, in channel-index order, no
// matter which share ticked which channel.
type tickPool struct {
	ctrls  []*memctrl.Controller
	shares int

	// Batch inputs: written by the caller before the seq bump publishes
	// them, read by workers after observing the bump.
	op  uint32
	now int64

	seq       atomic.Uint64
	remaining atomic.Int32
	res       []chanResult
	parked    []chan struct{}
	wg        sync.WaitGroup
}

// forcedShares, when positive, overrides the host-derived share count.
// Tests set it to exercise multi-worker batches on any host (a 1-core
// machine would otherwise collapse every pool to the inline share).
var forcedShares atomic.Int32

// newTickPool sizes the pool to the host and starts shares-1 workers.
func newTickPool(ctrls []*memctrl.Controller) *tickPool {
	shares := runtime.GOMAXPROCS(0)
	if v := int(forcedShares.Load()); v > 0 {
		shares = v
	}
	if shares > len(ctrls) {
		shares = len(ctrls)
	}
	if shares < 1 {
		shares = 1
	}
	p := &tickPool{
		ctrls:  ctrls,
		shares: shares,
		res:    make([]chanResult, len(ctrls)),
		parked: make([]chan struct{}, shares-1),
	}
	for w := range p.parked {
		p.parked[w] = make(chan struct{}, 1)
	}
	p.wg.Add(len(p.parked))
	for w := range p.parked {
		go p.worker(w + 1)
	}
	return p
}

// runShare ticks one share's channels for the current batch.
func (p *tickPool) runShare(share int, now int64) {
	for c := share; c < len(p.ctrls); c += p.shares {
		p.res[c].progress = p.ctrls[c].Tick(now)
	}
}

// worker executes its share of every batch until opStop.
func (p *tickPool) worker(share int) {
	defer p.wg.Done()
	last := uint64(0)
	for {
		spins := 0
		for p.seq.Load() == last {
			switch {
			case spins < hotSpins:
				spins++
			case spins < yieldSpins:
				spins++
				runtime.Gosched()
			default:
				// A consumed token may predate this park (the worker spun
				// through an earlier batch without needing it); the re-check
				// of seq in the loop condition makes stale wakes harmless.
				<-p.parked[share-1]
			}
		}
		last++
		op, now := p.op, p.now
		if op == opStop {
			p.remaining.Add(-1)
			return
		}
		p.runShare(share, now)
		p.remaining.Add(-1)
	}
}

// run executes one batch: it publishes the operation, wakes any parked
// workers, performs share 0 on the calling goroutine, and spin-waits
// until every worker has finished (the barrier). With a single share
// there is nothing to synchronize and the batch runs inline.
func (p *tickPool) run(op uint32, now int64) {
	if len(p.parked) == 0 {
		if op != opStop {
			p.runShare(0, now)
		}
		return
	}
	p.op, p.now = op, now
	p.remaining.Store(int32(len(p.parked)))
	p.seq.Add(1)
	for _, ch := range p.parked {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	if op != opStop {
		p.runShare(0, now)
	}
	for p.remaining.Load() != 0 {
		runtime.Gosched()
	}
}

// tick advances every channel one cycle across the shares and merges
// the per-channel progress flags at the barrier.
func (p *tickPool) tick(now int64) bool {
	p.run(opTick, now)
	progress := false
	for i := range p.res {
		if p.res[i].progress {
			progress = true
		}
	}
	return progress
}

// stop shuts the workers down and waits for them to exit.
func (p *tickPool) stop() {
	p.run(opStop, 0)
	p.wg.Wait()
}
