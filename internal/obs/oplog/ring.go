package oplog

import (
	"sync"

	"afdx/internal/obs"
)

// RequestTrace is one completed HTTP request retained for after-the-
// fact inspection: the correlation id minted by the serve layer, the
// request line, outcome, latency, and the engine spans the request
// produced (already in Chrome-trace event form, the repository's
// canonical trace encoding).
type RequestTrace struct {
	ID      string           `json:"id"`
	Method  string           `json:"method"`
	Path    string           `json:"path"`
	Session string           `json:"session,omitempty"`
	Status  int              `json:"status"`
	DurUs   int64            `json:"durUs"`
	Events  []obs.TraceEvent `json:"events,omitempty"`
}

// TraceSummary is the listing form of a retained trace: everything
// but the event payload, plus the event count.
type TraceSummary struct {
	ID      string `json:"id"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Session string `json:"session,omitempty"`
	Status  int    `json:"status"`
	DurUs   int64  `json:"durUs"`
	Events  int    `json:"events"`
}

// Ring retains the most recent completed request traces within a
// budget of retained trace events, so its memory is bounded whatever
// the size of the traces: each trace costs max(1, len(Events)) events.
// Adding a trace evicts the oldest ones until it fits; the newest trace
// is always retained, even when it alone exceeds the budget. Lookups
// by id only resolve while the trace is retained. All methods are safe
// for concurrent use, and a nil *Ring no-ops, so the serve layer
// threads it unconditionally.
type Ring struct {
	mu     sync.Mutex
	budget int
	used   int             // events retained
	q      []*RequestTrace // retained traces, oldest first
	byID   map[string]*RequestTrace
}

// NewRing returns a ring retaining up to budget trace events; budget
// ≤ 0 returns nil (retention off).
func NewRing(budget int) *Ring {
	if budget <= 0 {
		return nil
	}
	return &Ring{budget: budget, byID: make(map[string]*RequestTrace)}
}

// cost is the budget share of one retained trace.
func cost(tr *RequestTrace) int { return max(1, len(tr.Events)) }

// Add retains tr, evicting the oldest traces until it fits the budget.
func (r *Ring) Add(tr RequestTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &tr
	for len(r.q) > 0 && r.used+cost(t) > r.budget {
		old := r.q[0]
		r.q[0] = nil // the backing array must not keep it alive
		r.q = r.q[1:]
		r.used -= cost(old)
		if r.byID[old.ID] == old {
			delete(r.byID, old.ID)
		}
	}
	r.q = append(r.q, t)
	r.used += cost(t)
	r.byID[t.ID] = t
}

// Get returns the retained trace with the given id.
func (r *Ring) Get(id string) (RequestTrace, bool) {
	if r == nil {
		return RequestTrace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tr, ok := r.byID[id]
	if !ok {
		return RequestTrace{}, false
	}
	return *tr, true
}

// List returns summaries of the retained traces, newest first.
func (r *Ring) List() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.q))
	for i := len(r.q) - 1; i >= 0; i-- {
		tr := r.q[i]
		out = append(out, TraceSummary{
			ID:      tr.ID,
			Method:  tr.Method,
			Path:    tr.Path,
			Session: tr.Session,
			Status:  tr.Status,
			DurUs:   tr.DurUs,
			Events:  len(tr.Events),
		})
	}
	return out
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.q)
}
