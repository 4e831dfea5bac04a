package memctrl

import (
	"fmt"

	"breakhammer/internal/dram"
)

// Test-only access to the controller's sleep (see Controller.idleUntil)
// and its candidate table. The forced-polling controller the sleep is
// checked against exists only here: production code has no way to switch
// the sleep off.

// pollEveryTick wraps tick so the controller forgets its sleep and its
// candidate table before every Tick and runs the full scheduler on a
// fresh table each cycle, as it did before the sleep existed.
func pollEveryTick(c *Controller, tick func(now int64) bool) func(now int64) bool {
	return func(now int64) bool {
		c.wake()
		return tick(now)
	}
}

// asleepAt reports whether a Tick at now would skip the scheduler.
func (c *Controller) asleepAt(now int64) bool { return now < c.idleUntil }

// tableMatchesRebuild returns nil unless the candidate table is current
// (tabQ set) and some occupied bank's entries differ from what a fresh
// fillBank writes for it: each bank is refilled into its own slot, compared
// and put back, so the table the controller goes on with is the patched
// one. An entry whose legal-at cycle is dram.Never names no request, so
// only that cycle is compared there.
func tableMatchesRebuild(c *Controller) error {
	q := c.tabQ
	if q == nil {
		return nil
	}
	for _, b := range q.active {
		kept := c.tab[b]
		c.fillBank(q, int(b))
		fresh := c.tab[b]
		c.tab[b] = kept
		if !sameCand(kept.col, fresh.col) || !sameCand(kept.row, fresh.row) {
			return fmt.Errorf("bank %d: the table holds %+v, a rebuild %+v", b, kept, fresh)
		}
	}
	return nil
}

func sameCand(a, b cand) bool {
	return a.at == b.at && (a.at == dram.Never || a == b)
}
