package memctrl

// EventKind discriminates the deferred side effects a controller tick can
// produce for components outside its own channel.
type EventKind uint8

// Deferred event kinds, in the vocabulary of the controller's callback
// surfaces: a completed read's latency report, a completed read's LLC
// fill, and a demand row activation observed by activate hooks.
const (
	EventLatency EventKind = iota
	EventFill
	EventActivate
)

// Event is one recorded callback invocation. Which fields are meaningful
// depends on Kind: Latency uses Thread/Cycles, Fill uses Line, Activate
// uses Bank/Row/Thread/At.
type Event struct {
	Kind   EventKind
	Line   uint64
	Thread int
	Cycles int64
	Bank   int
	Row    int
	At     int64
}

// EventBuffer collects the cross-component side effects of one
// controller's tick — LLC fills, latency reports, activate-hook
// notifications — instead of invoking the callbacks inline. The memsys
// layer attaches one buffer per channel so that a cycle batch ticks
// every channel without touching shared state mid-tick and then
// replays each buffer in channel-index order, giving cross-channel
// observers one event order: channel 0's events of the cycle, then
// channel 1's, and so on.
type EventBuffer struct {
	events []Event
}

// NewEventBuffer returns a buffer whose backing storage is pre-grown to
// capHint events, so the first cycle batches never reallocate mid-tick.
// The buffer still grows past the hint if a tick produces more events.
func NewEventBuffer(capHint int) *EventBuffer {
	return &EventBuffer{events: make([]Event, 0, capHint)}
}

// Len reports the number of buffered events.
func (b *EventBuffer) Len() int { return len(b.events) }

// SetEventBuffer switches the controller into deferred-event mode: from
// now on Tick records fill, latency and activate-hook invocations into
// buf (in the order they would have fired) instead of calling the
// installed callbacks, until ReplayEvents delivers them. A nil buffer
// restores inline delivery.
func (c *Controller) SetEventBuffer(buf *EventBuffer) { c.events = buf }

// ReplayEvents invokes the real callbacks for every buffered event, in
// the exact order the tick recorded them, then empties the buffer (its
// capacity is retained). The memsys layer calls it once every channel
// of the cycle batch has ticked.
func (c *Controller) ReplayEvents() {
	if c.events == nil || len(c.events.events) == 0 {
		return
	}
	evs := c.events.events
	c.events.events = nil // guard against reentrant appends mid-replay
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case EventLatency:
			if c.latency != nil {
				c.latency(ev.Thread, ev.Cycles)
			}
		case EventFill:
			if c.fill != nil {
				c.fill(ev.Line)
			}
		case EventActivate:
			c.Activated(ev.Bank, ev.Row, ev.Thread, ev.At)
		}
	}
	c.events.events = evs[:0]
}
