package serve

import (
	"encoding/json"
	"fmt"

	"breakhammer/internal/exp"
)

// Durable job tickets: every cold figure job writes an open ticket into
// the store's raw namespace before it starts, and settles it (done or
// failed) when it finishes. A server killed mid-job leaves the ticket
// open; the next server's ReattachTickets finds it and re-ensures the
// job, whose prefetch re-enumerates the figure's points against store
// coverage — points the dead server completed are already persisted
// and serve warm, so the resumed job simulates only what is missing.
// Tickets are keyed by a fixed prefix plus the job's dedup key.

// ticketKeyPrefix namespaces ticket records among raw keys.
const ticketKeyPrefix = "job-ticket-"

// Ticket states.
const (
	// TicketOpen marks a job that has started and not yet finished; an
	// open ticket at startup is resumed.
	TicketOpen = "open"
	// TicketDone marks a completed job.
	TicketDone = "done"
	// TicketFailed marks a job that ran to a real failure (not a
	// shutdown); it is not resumed.
	TicketFailed = "failed"
)

// ticketRecord is the persisted wire form of one job ticket.
type ticketRecord struct {
	Figure string `json:"figure"` // figure id, for display
	Name   string `json:"name"`   // experiment name, for re-dispatch
	// Params holds a parameterized request's overrides; nil for a plain
	// figure job. A reattached parameterized job re-derives its runner
	// from them.
	Params *figureRequest `json:"params,omitempty"`
	State  string         `json:"state"`
	Error  string         `json:"error,omitempty"`
}

// openTicket persists an open ticket for a job about to be ensured.
// Ticket writes are best-effort: a store that cannot persist degrades
// to the pre-ticket behavior (the job dies with the process) rather
// than failing the request.
func (s *Server) openTicket(key string, ex exp.Experiment, params *figureRequest) {
	s.writeTicket(key, ticketRecord{
		Figure: FigureID(ex.Name),
		Name:   ex.Name,
		Params: params,
		State:  TicketOpen,
	})
}

// finishTicket settles a job's ticket; it is the manager's onFinish
// callback. Jobs interrupted by shutdown never reach it (see
// Manager.run), so their tickets stay open for the next process.
func (s *Server) finishTicket(key string, jobErr error) {
	raw, ok := s.runner.Store().GetRaw(ticketKeyPrefix + key)
	if !ok {
		return
	}
	var rec ticketRecord
	if json.Unmarshal(raw, &rec) != nil {
		return
	}
	if jobErr != nil {
		rec.State = TicketFailed
		rec.Error = jobErr.Error()
		s.logf("job %s failed: %v", key, jobErr)
	} else {
		rec.State = TicketDone
		rec.Error = ""
		s.logf("job %s done", key)
	}
	s.writeTicket(key, rec)
}

// writeTicket persists one ticket record, logging rather than
// propagating failures.
func (s *Server) writeTicket(key string, rec ticketRecord) {
	raw, err := json.Marshal(rec)
	if err == nil {
		err = s.runner.Store().PutRaw(ticketKeyPrefix+key, raw)
	}
	if err != nil {
		s.logf("ticket %s: %v", key, err)
	}
}

// ReattachTickets scans the store for open job tickets and re-ensures
// their jobs, returning how many were reattached. bhserve calls it once
// at startup, after the store loaded: work that was in flight when the
// previous process died resumes, simulating only points the store does
// not already hold. A parameterized ticket whose request no longer
// resolves (the server's base options changed underneath it) is marked
// failed instead of wedging startup.
func (s *Server) ReattachTickets() (int, error) {
	reattached := 0
	for _, rawKey := range s.runner.Store().RawKeys(ticketKeyPrefix) {
		raw, ok := s.runner.Store().GetRaw(rawKey)
		if !ok {
			continue
		}
		var rec ticketRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.State != TicketOpen {
			continue
		}
		key := rawKey[len(ticketKeyPrefix):]
		ex, ok := exp.ExperimentByName(rec.Name)
		if !ok {
			rec.State = TicketFailed
			rec.Error = fmt.Sprintf("unknown experiment %q", rec.Name)
			s.writeTicket(key, rec)
			continue
		}
		runner := s.runner
		if rec.Params != nil {
			var err error
			runner, _, err = s.runnerFor(*rec.Params)
			if err != nil {
				rec.State = TicketFailed
				rec.Error = err.Error()
				s.writeTicket(key, rec)
				continue
			}
		}
		s.mgr.Ensure(key, ex, runner)
		reattached++
	}
	return reattached, nil
}
