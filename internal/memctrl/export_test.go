package memctrl

// Test-only access to the controller's sleep (see Controller.idleUntil).
// The forced-polling controller the sleep is checked against exists only
// here: production code has no way to switch the sleep off.

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
