package exp

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The HTTP renderings bhserve's figure routes and the fleet's lease
// routes share: the JSON body, the {"error": ...} body, and a queue's
// event log as Server-Sent Events.

// WriteJSON renders v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError renders an error as the small JSON object {"error": ...}
// every non-2xx answer carries.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}

// StreamEvents serves q's event log as Server-Sent Events: the full
// history replays first (so every subscriber sees every point exactly
// once, whenever it joins), then live events as
// "event: <type>\ndata: <json>\n\n" frames, then — once done closes — a
// terminal "done" event carrying final()'s JSON. A subscriber dropped
// for being slow, or a closed queue, ends the stream without the
// terminal event. done is the front-end's notion of finished: the
// queue's own Done for the fleet, the end of the render for a figure
// job (so the follow-up figure GET is a 200).
func StreamEvents(w http.ResponseWriter, r *http.Request, q *Queue, done <-chan struct{}, final func() any) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	history, live, cancel := q.Subscribe()
	defer cancel()
	write := func(e Event) {
		if data, err := json.Marshal(e); err == nil {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		}
	}
	for _, e := range history {
		write(e)
	}
	flusher.Flush()
	for {
		select {
		case e, ok := <-live:
			if !ok {
				return
			}
			write(e)
			flusher.Flush()
		case <-done:
			// Flush the events that raced the terminal state before
			// announcing it.
			for more := true; more; {
				select {
				case e, ok := <-live:
					if !ok {
						return
					}
					write(e)
				default:
					more = false
				}
			}
			data, _ := json.Marshal(final())
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
