package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"iwscan/internal/events"
)

// Events-page and watch-stream handlers. Pages are plain JSON with a
// resume cursor; watch streams are Server-Sent Events whose SSE id is
// the journal sequence, so Last-Event-ID resume is gap-free by
// construction. Both work from the same journal the validator and the
// iwtrace jobs verb read — there is exactly one source of truth.

// EventsPage is one page of journal events. Next is the cursor to pass
// as ?from= for the following page; a client has caught up when Next >
// HighWater.
type EventsPage struct {
	From      uint64         `json:"from"`
	Events    []events.Event `json:"events"`
	Next      uint64         `json:"next"`
	HighWater uint64         `json:"high_water"`
}

const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// MaxLongPoll caps the ?wait= of a journal page request: the longest a
// long-poll holds its request open.
const MaxLongPoll = 30 * time.Second

func errJournalDisarmed() error {
	return fmt.Errorf("jobs: event journal not armed (start the daemon with an events dir)")
}

func parseSeq(q string, def uint64) uint64 {
	if q == "" {
		return def
	}
	n, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return def
	}
	return n
}

// eventsPage builds a page of events with Seq >= from, keeping only
// events accepted by keep (nil keeps all). Next advances past every
// scanned event — matching or not — so filtered pagination still
// terminates.
func eventsPage(jr *events.Journal, from uint64, limit int, keep func(events.Event) bool) EventsPage {
	if from < 1 {
		from = 1
	}
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	page := EventsPage{From: from, Events: []events.Event{}, HighWater: jr.HighWater()}
	page.Next = from
	for _, ev := range jr.Since(from) {
		if keep != nil && !keep(ev) {
			page.Next = ev.Seq + 1
			continue
		}
		if len(page.Events) == limit {
			break
		}
		page.Events = append(page.Events, ev)
		page.Next = ev.Seq + 1
	}
	return page
}

// serveEventsPage answers a paginated (and optionally long-polling)
// journal read. ?wait=<duration> holds the request open until an event
// matching the filter arrives past the cursor or the wait expires.
func (s *Server) serveEventsPage(w http.ResponseWriter, req *http.Request, keep func(events.Event) bool) {
	jr := s.m.Journal()
	if jr == nil {
		writeError(w, http.StatusServiceUnavailable, errJournalDisarmed())
		return
	}
	q := req.URL.Query()
	from := parseSeq(q.Get("from"), 1)
	limit, _ := strconv.Atoi(q.Get("limit"))
	page := eventsPage(jr, from, limit, keep)
	if len(page.Events) == 0 && q.Get("wait") != "" {
		wait, err := time.ParseDuration(q.Get("wait"))
		if err == nil && wait > 0 {
			if wait > MaxLongPoll {
				wait = MaxLongPoll
			}
			// Subscribe past everything already scanned, then wait for
			// the first matching arrival and re-page.
			watcher, _ := jr.Subscribe(page.Next, s.watchBuffer())
			defer watcher.Close()
			deadline := time.NewTimer(wait)
			defer deadline.Stop()
		poll:
			for {
				select {
				case ev, ok := <-watcher.C():
					if !ok {
						break poll
					}
					if keep == nil || keep(ev) {
						break poll
					}
				case <-deadline.C:
					break poll
				case <-req.Context().Done():
					return
				}
			}
			page = eventsPage(jr, from, limit, keep)
		}
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	s.serveEventsPage(w, req, nil)
}

func (s *Server) handleJobEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if _, ok := s.m.Get(id); !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	s.serveEventsPage(w, req, func(ev events.Event) bool { return ev.Job == id })
}

// handleAudit serves the scheduler's decision trail: dispatch choices
// (with losing candidates), vtime charges/settlements and idle wakes,
// plus the live scheduler snapshot. Without ?from= it returns the most
// recent events; with ?from= it pages forward like /events.
func (s *Server) handleAudit(w http.ResponseWriter, req *http.Request) {
	jr := s.m.Journal()
	if jr == nil {
		writeError(w, http.StatusServiceUnavailable, errJournalDisarmed())
		return
	}
	keep := func(ev events.Event) bool {
		switch ev.Type {
		case events.TypeDispatch, events.TypeVtimeCharge, events.TypeVtimeSettle,
			events.TypeTenantWake, events.TypeJobSubmitted:
			return true
		}
		return false
	}
	q := req.URL.Query()
	limit, _ := strconv.Atoi(q.Get("limit"))
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	var page EventsPage
	if q.Get("from") != "" {
		page = eventsPage(jr, parseSeq(q.Get("from"), 1), limit, keep)
	} else {
		// Tail mode: the last `limit` audit events.
		all := eventsPage(jr, 1, maxPageLimit, keep)
		for all.Next <= all.HighWater {
			more := eventsPage(jr, all.Next, maxPageLimit, keep)
			all.Events = append(all.Events, more.Events...)
			all.Next, all.HighWater = more.Next, more.HighWater
		}
		if len(all.Events) > limit {
			all.Events = all.Events[len(all.Events)-limit:]
		}
		page = all
		if len(page.Events) > 0 {
			page.From = page.Events[0].Seq
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Scheduler SchedulerStats `json:"scheduler"`
		Audit     EventsPage     `json:"audit"`
	}{s.m.Stats(), page})
}

func (s *Server) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return 5 * time.Second
}

func (s *Server) watchBuffer() int {
	if s.WatchBuffer > 0 {
		return s.WatchBuffer
	}
	return 1024
}

func (s *Server) handleWatch(w http.ResponseWriter, req *http.Request) {
	s.serveSSE(w, req, "")
}

func (s *Server) handleJobWatch(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if _, ok := s.m.Get(id); !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	s.serveSSE(w, req, id)
}

// serveSSE streams journal events as Server-Sent Events. With jobID
// set, only that job's events pass the filter — except the terminal
// server_shutdown event, which every watcher receives so no stream
// ever just drops mid-flight on a graceful shutdown. The cursor rules:
// default is live-only (from the current high-water mark forward); a
// Last-Event-ID header resumes after the given sequence; an explicit
// ?from= names the first sequence wanted.
func (s *Server) serveSSE(w http.ResponseWriter, req *http.Request, jobID string) {
	jr := s.m.Journal()
	if jr == nil {
		writeError(w, http.StatusServiceUnavailable, errJournalDisarmed())
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("jobs: streaming unsupported"))
		return
	}
	from := jr.HighWater() + 1
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		from = parseSeq(v, from-1) + 1
	}
	if v := req.URL.Query().Get("from"); v != "" {
		from = parseSeq(v, from)
	}

	watcher, backlog := jr.Subscribe(from, s.watchBuffer())
	defer watcher.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(ev events.Event) {
		if jobID != "" && ev.Job != jobID && ev.Type != events.TypeServerShutdown {
			return
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	}
	for _, ev := range backlog {
		send(ev)
	}
	fl.Flush()

	hb := time.NewTicker(s.heartbeat())
	defer hb.Stop()
	for {
		select {
		case ev, ok := <-watcher.C():
			if !ok {
				// Journal closed (graceful shutdown, after the terminal
				// server_shutdown was delivered) or this watcher fell
				// too far behind; either way the client reconnects from
				// its last SSE id and misses nothing.
				return
			}
			send(ev)
			// Drain whatever else is queued before flushing once.
			drained := false
			for !drained {
				select {
				case ev, ok := <-watcher.C():
					if !ok {
						fl.Flush()
						return
					}
					send(ev)
				default:
					drained = true
				}
			}
			fl.Flush()
		case <-hb.C:
			fmt.Fprintf(w, ": heartbeat %d\n\n", time.Now().UnixNano())
			fl.Flush()
		case <-req.Context().Done():
			return
		}
	}
}
