package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the harness wraps exported entry points, it does not instrument them.
// Spans of one study share its id; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Study   int    `json:"study"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use (the gateway's two client connections record into one).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id; parent 0 makes it a root. A nil
// recorder records nothing, so the untraced phase runs the same code with
// no span taken.
func (r *recorder) start(name string, parent, study int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Study: study, Name: name, StartNS: now})
	return len(r.spans)
}

// end closes the span and returns its duration in milliseconds.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = now
	return float64(s.durNS()) / 1e6
}

// time runs fn inside a span and returns the span's duration in ms.
func (r *recorder) time(name string, parent, study int, fn func()) float64 {
	id := r.start(name, parent, study)
	fn()
	return r.end(id)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durationsMS returns the duration of every closed span called name.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range r.snapshot() {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.durNS())/1e6)
		}
	}
	return out
}

// selfTimesNS returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children — two
// workers running side by side — are counted once).
func selfTimesNS(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.durNS() - covered
	}
	return self
}

// writeSpans dumps the run's spans, with self times, to path.
func writeSpans(path string, workload string, seed int64, spans []span) error {
	self := selfTimesNS(spans)
	type outSpan struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload, Seed: seed, Spans: make([]outSpan, len(spans))}
	for i, s := range spans {
		out.Spans[i] = outSpan{s, self[s.ID]}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
