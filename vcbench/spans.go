package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans nest: workload →
// experiment → cell or assemble → layer call, and served jobs → their
// HTTP round trips. A span's parent is the span that caused it.
type span struct {
	name   string
	tag    string // cell kind, experiment id, predictor name, ...
	start  time.Duration
	end    time.Duration
	parent int // index of the parent span, -1 for a root
	lane   int // Chrome trace thread: worker or client index
}

// recorder keeps spans in memory for the traced run. A nil *recorder is
// the untraced run: every method is a no-op that reads no clock.
type recorder struct {
	run   string // run id shared by every span of this process
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name, tag string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, tag: tag, start: now, end: -1, parent: parent, lane: lane})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// snapshot returns the closed spans; call it once the run is quiescent.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (the union of the children's
// intervals, so children running in parallel are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[i] = s.dur() - covered
	}
	return self
}

// selfByName sums self time by span name and by name/tag, the keys the
// per-layer metrics read.
func selfByName(spans []span, self []time.Duration) map[string]time.Duration {
	t := map[string]time.Duration{}
	for i, s := range spans {
		t[s.name] += self[i]
		t[s.name+"/"+s.tag] += self[i]
	}
	return t
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto) and returns the file path.
func writeChrome(dir string, r *recorder, spans []span, self []time.Duration) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "vcbench", Ph: "X",
			TS: us(s.start), Dur: us(s.dur()), PID: 1, TID: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "run": r.run, "tag": s.tag, "self_us": us(self[i])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.run+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
