package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"vectorwise/internal/engine"
	"vectorwise/internal/monitor"
)

// span is one timed interval of the traced run. Spans of one statement
// share its op id; a statement's root span is named after the layer it
// calls (session.exec, or engine.copy / engine.analyze / txn.checkpoint
// for the set-up and maintenance statements) and the engine's own
// per-query phase spans nest under it.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	Template string `json:"template,omitempty"`
	Start    int64  `json:"start_ns"` // since the run started
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// phaseLayer names the layer behind each monitor phase span.
var phaseLayer = map[string]string{
	"parse":    "sql.parse",
	"bind":     "plan.bind",
	"optimize": "optimizer.optimize",
	"xcompile": "xcompile.compile",
	"rewrite":  "rewriter.rewrite",
	"build":    "physical.build",
	"execute":  "exec.execute",
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	claimed map[int64]bool // monitor query ids already attached to a span
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, claimed: map[int64]bool{}}
}

func (t *tracer) add(parent int, opID int64, name, template string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(parent, opID, name, template, start, end)
}

func (t *tracer) addLocked(parent int, opID int64, name, template string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: opID, Name: name, Template: template,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// statement records one statement's root span and, for a SELECT, nests
// the engine's phase spans under it. The engine's record of the query is
// the unclaimed one with the same text that ran inside the call and
// started soonest after it.
func (t *tracer) statement(db *engine.DB, opID int64, name string, o *op, start, end time.Time) {
	root := t.add(0, opID, name, o.template, start, end)
	if o.class != classRead {
		return // the monitor records SELECTs only
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var best *monitor.QueryInfo
	hist := db.Monitor.History()
	for i := range hist {
		qi := &hist[i]
		if qi.SQL != o.sql || t.claimed[qi.ID] || qi.Start.Before(start) || qi.Start.Add(qi.Duration).After(end) {
			continue
		}
		if best == nil || qi.Start.Before(best.Start) {
			best = qi
		}
	}
	if best == nil {
		return
	}
	t.claimed[best.ID] = true
	for _, ps := range best.Spans {
		t.addLocked(root, opID, phaseLayer[ps.Phase], o.template, ps.Start, ps.Start.Add(ps.Dur))
	}
}

// layerTime is the busy time of one span name across the run.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is total time minus the part of each span its children
	// cover.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes derives each span's self time: its duration minus the union
// of its children's intervals clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerTimes sums busy and self time per span name.
func layerTimes(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += ms(s.dur())
		lt.SelfMS += ms(self[s.ID])
		out[s.Name] = lt
	}
	return out
}

// write saves the spans and the per-layer times as JSON.
func (t *tracer) write(path string, prov provenance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Provenance provenance           `json:"provenance"`
		Layers     map[string]layerTime `json:"layers"`
		Spans      []span               `json:"spans"`
	}{prov, layerTimes(t.spans), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
