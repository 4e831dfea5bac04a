package memsys

import (
	"fmt"
	"testing"

	"breakhammer/internal/dram"
	"breakhammer/internal/memctrl"
)

func testConfig(channels int) Config {
	return Config{
		Channels: channels,
		DRAM:     dram.Default(),
		Timing:   dram.DDR5(),
		MC:       memctrl.DefaultConfig(),
	}
}

func TestValidateRejectsBadChannelCounts(t *testing.T) {
	for _, n := range []int{-1, 3, 6, 12} {
		cfg := testConfig(n)
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("Channels=%d accepted", n)
		}
	}
	for _, n := range []int{0, 1, 2, 8} {
		cfg := testConfig(n)
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatalf("Channels=%d rejected: %v", n, err)
		}
		want := n
		if want == 0 {
			want = 1
		}
		if m.Channels() != want {
			t.Errorf("Channels=%d built %d controllers", n, m.Channels())
		}
	}
}

func TestRoutingFollowsMapper(t *testing.T) {
	m, err := New(testConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 2)
	for line := uint64(0); line < 256; line++ {
		if !m.EnqueueRead(line, 0) {
			break // queue full; enough traffic enqueued
		}
		want[m.Mapper().Map(line).Channel]++
	}
	for ch := 0; ch < 2; ch++ {
		reads, _ := m.Channel(ch).QueueOccupancy()
		if reads != want[ch] {
			t.Errorf("channel %d holds %d reads, mapper routed %d", ch, reads, want[ch])
		}
	}
	if want[0] == 0 || want[1] == 0 {
		t.Error("consecutive lines did not spread across both channels")
	}
}

func TestMergedStatsSumChannels(t *testing.T) {
	m, err := New(testConfig(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	fills := 0
	m.SetFillFunc(func(line uint64) { fills++ })
	for line := uint64(0); line < 64; line++ {
		if !m.EnqueueRead(line, int(line)%2) {
			t.Fatalf("enqueue %d rejected", line)
		}
	}
	for cycle := int64(0); cycle < 20000; cycle++ {
		m.Tick(cycle)
	}
	if fills != 64 {
		t.Fatalf("completed %d of 64 reads", fills)
	}
	merged := m.Stats()
	var perChannel memctrl.Stats
	for ch := 0; ch < m.Channels(); ch++ {
		perChannel.Add(m.ChannelStats(ch))
	}
	if merged.TotalACTs != perChannel.TotalACTs || merged.TotalACTs == 0 {
		t.Errorf("merged ACTs %d != channel sum %d", merged.TotalACTs, perChannel.TotalACTs)
	}
	for tid := range merged.ReadsDone {
		if merged.ReadsDone[tid] != perChannel.ReadsDone[tid] {
			t.Errorf("thread %d: merged reads %d != channel sum %d",
				tid, merged.ReadsDone[tid], perChannel.ReadsDone[tid])
		}
	}
	var total int64
	for _, n := range merged.ReadsDone {
		total += n
	}
	if total != 64 {
		t.Errorf("merged ReadsDone total = %d, want 64", total)
	}
}

func TestActivateHookSeesEveryChannel(t *testing.T) {
	m, err := New(testConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[int]int)
	m.AddActivateHook(func(channel, bank, row, thread int, now int64) {
		hits[channel]++
	})
	for line := uint64(0); line < 64; line++ {
		m.EnqueueRead(line, 0)
	}
	for cycle := int64(0); cycle < 20000; cycle++ {
		m.Tick(cycle)
	}
	if hits[0] == 0 || hits[1] == 0 {
		t.Errorf("activate hook coverage per channel = %v, want both channels", hits)
	}
}

func TestNextWakeCoversResponsesAndRefresh(t *testing.T) {
	m, err := New(testConfig(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Idle system: the only wake-up is the first refresh deadline.
	w := m.NextWake(0)
	refi := dram.DDR5().REFI
	if w <= 0 || w > refi {
		t.Errorf("idle NextWake = %d, want within the first tREFI %d", w, refi)
	}
	// With an in-flight read, the wake-up must not sit past the data
	// arrival: tick until the command issues, then check.
	m.EnqueueRead(0, 0)
	delivered := false
	m.SetFillFunc(func(uint64) { delivered = true })
	for cycle := int64(0); cycle < 1000 && !delivered; cycle++ {
		if !m.Tick(cycle) {
			wake := m.NextWake(cycle)
			if wake <= cycle {
				t.Fatalf("NextWake(%d) = %d, not in the future", cycle, wake)
			}
			if wake > cycle+1000 {
				t.Fatalf("NextWake(%d) = %d, unreachably far with a read in flight", cycle, wake)
			}
		}
	}
	if !delivered {
		t.Fatal("read never completed")
	}
}

// batchEvent is one observation made outside the channels: the cycle
// whose Tick delivered it, the channel it came from and what it was.
type batchEvent struct {
	tick    int64
	channel int
	what    string
}

// driveBatch exercises one Interleaved with a deterministic request
// pattern and records every externally observable event — fills,
// latencies and activate-hook notifications — as one sequence. Each
// read is issued by the thread numbered after the channel its line
// decodes to, so every event names its channel: a fill by its line, a
// latency report by its thread, an activation explicitly.
func driveBatch(t *testing.T, channels int) []batchEvent {
	t.Helper()
	m, err := New(testConfig(channels), channels)
	if err != nil {
		t.Fatal(err)
	}
	var events []batchEvent
	var tick int64
	m.SetFillFunc(func(line uint64) {
		ch := m.Mapper().Map(line).Channel
		events = append(events, batchEvent{tick, ch, fmt.Sprintf("fill %#x", line)})
	})
	m.SetLatencySink(func(thread int, cycles int64) {
		events = append(events, batchEvent{tick, thread, fmt.Sprintf("lat %d", cycles)})
	})
	m.AddActivateHook(func(channel, bank, row, thread int, now int64) {
		if thread != channel {
			t.Fatalf("channel %d activated for thread %d, whose reads all map to channel %d", channel, thread, thread)
		}
		events = append(events, batchEvent{tick, channel, fmt.Sprintf("act b%d r%d @%d", bank, row, now)})
	})
	next := uint64(0)
	for tick = 0; tick < 30000; tick++ {
		// Keep a trickle of traffic flowing so every channel stays busy
		// and responses from different channels interleave.
		if tick%7 == 0 {
			line := next * 37
			m.EnqueueRead(line, m.Mapper().Map(line).Channel)
			next++
		}
		if !m.Tick(tick) && m.NextWake(tick) <= tick {
			t.Fatalf("NextWake(%d) not in the future on an idle tick", tick)
		}
	}
	return events
}

// TestBatchDrainsInChannelOrder pins the order every multi-channel
// result is recorded in: within one Tick, each fill, latency report and
// activation of channel c reaches its observer before any of channel
// c+1's. It counts where one tick's events move on to a later channel,
// so a pattern that never mixes channels in one cycle fails as vacuous
// instead of passing.
func TestBatchDrainsInChannelOrder(t *testing.T) {
	for _, channels := range []int{2, 4, 8} {
		events := driveBatch(t, channels)
		seen := make([]bool, channels)
		mixed := 0 // places where one tick's events move on to a later channel
		for i, ev := range events {
			seen[ev.channel] = true
			if i == 0 || events[i-1].tick != ev.tick {
				continue
			}
			prev := events[i-1]
			if prev.channel > ev.channel {
				t.Fatalf("channels=%d: tick %d delivered channel %d's %q after channel %d's %q",
					channels, ev.tick, ev.channel, ev.what, prev.channel, prev.what)
			}
			if prev.channel < ev.channel {
				mixed++
			}
		}
		for ch, ok := range seen {
			if !ok {
				t.Errorf("channels=%d: channel %d delivered no event", channels, ch)
			}
		}
		if mixed == 0 {
			t.Errorf("channels=%d: no tick delivered events of two channels; the order is unobserved", channels)
		}
	}
}

// TestNextWakeIsTight guards the exactness of the wake bound, the property
// that makes the controllers' sleep worth having: after an idle Tick with
// work outstanding, every Tick before NextWake is idle too (soundness) and
// the Tick at NextWake issues a command or delivers data (tightness). Any
// lower bound keeps simulations identical, so a bound decaying back toward
// "the next expiry of any constraint" would pass every identity test and
// only show here. The one wake allowed to be idle is a refresh deadline,
// where a rank turns pending but its REF may still have to wait.
func TestNextWakeIsTight(t *testing.T) {
	for _, channels := range []int{1, 2} {
		m, err := New(testConfig(channels), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFillFunc(func(uint64) {})
		rowStride := uint64(m.cfg.DRAM.ColumnsPerRow * m.cfg.DRAM.TotalBanks() * channels)
		outstanding := func() bool {
			for ch := 0; ch < channels; ch++ {
				r, w := m.Channel(ch).QueueOccupancy()
				if r+w+m.Channel(ch).PendingPreventive() > 0 {
					return true
				}
			}
			return false
		}
		var tight, loose int
		cycle := int64(0)
		for burst := uint64(0); burst < 40; burst++ {
			// A burst of conflicting reads and writes over a few banks, then
			// silence until it drains: nothing arrives between an idle Tick
			// and its wake, which is the premise of NextWake.
			for i := uint64(0); i < 12; i++ {
				line := (burst*7+i*3)*rowStride + i%4*64 + i
				if i%3 == 2 {
					m.EnqueueWrite(line, -1)
				} else {
					m.EnqueueRead(line, int(i)%2)
				}
			}
			if burst%5 == 4 {
				m.Channel(int(burst)%channels).RequestVRR(int(burst)%8, []int{3, 4})
			}
			wake := int64(-1) // the pending bound, -1 when none
			for drained := false; !drained; cycle++ {
				progress := m.Tick(cycle)
				switch {
				case wake >= 0 && cycle < wake && progress:
					t.Fatalf("channels=%d: progress at cycle %d, before NextWake %d", channels, cycle, wake)
				case wake >= 0 && cycle == wake && progress:
					tight++
				case wake >= 0 && cycle == wake:
					loose++
				}
				if progress || cycle >= wake {
					wake = -1
				}
				if !progress && wake < 0 {
					if !outstanding() {
						drained = true
						continue
					}
					if wake = m.NextWake(cycle); wake <= cycle {
						t.Fatalf("channels=%d: NextWake(%d) = %d, not in the future", channels, cycle, wake)
					}
				}
			}
		}
		refreshes := m.Stats().Refreshes
		deadlines := int(refreshes) + channels*m.cfg.DRAM.Ranks
		if tight == 0 || loose > deadlines {
			t.Errorf("channels=%d: %d wakes made progress, %d did not; at most %d (refresh deadlines) may not",
				channels, tight, loose, deadlines)
		}
		if tight < 10*loose {
			t.Errorf("channels=%d: only %d of %d wakes made progress", channels, tight, tight+loose)
		}
	}
}
