package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acyd-lab/shatter/internal/stream"
)

// span is one timed call at a layer boundary. Spans of one home share its
// ID in Home; Parent names the span that caused this one (0 for a root).
type span struct {
	Phase  string `json:"phase"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Home   string `json:"home,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer records spans in memory; write dumps them when the run ends.
type tracer struct {
	phase string
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(phase string) *tracer {
	return &tracer{phase: phase, t0: time.Now()}
}

// id reserves a span ID, so a parent's ID is known before its children end.
func (t *tracer) id() int64 { return t.next.Add(1) }

// record closes span id, begun at start.
func (t *tracer) record(id, parent int64, name, home string, start time.Time) {
	end := time.Now()
	sp := span{Phase: t.phase, ID: id, Parent: parent, Name: name, Home: home,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// timed runs fn as one span.
func (t *tracer) timed(parent int64, name, home string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(t.id(), parent, name, home, start)
	return err
}

// layer is the aggregate of one span name.
type layer struct {
	n     int64
	total time.Duration // sum of span durations
	durs  []float64     // each span's duration in µs, in record order
}

// meanUS is the mean span duration in µs (0 when no span was recorded).
func (l *layer) meanUS() float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(l.total.Microseconds()) / float64(l.n)
}

func (l *layer) count() int64 {
	if l == nil {
		return 0
	}
	return l.n
}

func (l *layer) totalUS() int64 {
	if l == nil {
		return 0
	}
	return l.total.Microseconds()
}

func (l *layer) durations() []float64 {
	if l == nil {
		return nil
	}
	return l.durs
}

// layers aggregates the recorded spans by name. The sum-check adds leaf
// spans only, whose self time is their whole duration; parent spans stay in
// the written trace.
func (t *tracer) layers() map[string]*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*layer)
	for _, sp := range t.spans {
		l := out[sp.Name]
		if l == nil {
			l = &layer{}
			out[sp.Name] = l
		}
		l.n++
		l.total += time.Duration(sp.Dur)
		l.durs = append(l.durs, float64(sp.Dur)/1e3)
	}
	return out
}

// writeSpans dumps every tracer's spans as JSON lines to path.
func writeSpans(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		t.mu.Lock()
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapJobs decorates each job so its Open is a "stream.open" span and its
// source a timedSource.
func (t *tracer) wrapJobs(jobs []stream.Job) []stream.Job {
	out := make([]stream.Job, len(jobs))
	for i, j := range jobs {
		j := j
		out[i] = stream.Job{ID: j.ID, Open: func() (stream.Source, *stream.Home, error) {
			start := time.Now()
			src, h, err := j.Open()
			t.record(t.id(), 0, "stream.open", j.ID, start)
			if err != nil {
				return nil, nil, err
			}
			return &timedSource{src: src, t: t, home: j.ID}, h, nil
		}}
	}
	return out
}

// timedSource records every day-block it produces as an "aras.next_day"
// span and every seek as "aras.seek_day". It keeps the wrapped source's
// block, seek and close capabilities, so the fleet drives it on the same
// paths as the bare source.
type timedSource struct {
	src  stream.Source
	t    *tracer
	home string
}

func (s *timedSource) Next(dst *stream.Slot) error { return s.src.Next(dst) }

func (s *timedSource) NextBlock(dst *stream.DayBlock) error {
	b, ok := s.src.(stream.BlockSource)
	if !ok {
		return fmt.Errorf("shatterbench: source for %s emits no day blocks", s.home)
	}
	start := time.Now()
	err := b.NextBlock(dst)
	if err == nil {
		s.t.record(s.t.id(), 0, "aras.next_day", s.home, start)
	}
	return err
}

func (s *timedSource) SeekDay(day int) error {
	sk, ok := s.src.(stream.DaySeeker)
	if !ok {
		return fmt.Errorf("shatterbench: source for %s cannot seek", s.home)
	}
	start := time.Now()
	err := sk.SeekDay(day)
	s.t.record(s.t.id(), 0, "aras.seek_day", s.home, start)
	return err
}

func (s *timedSource) Close() error {
	closeSource(s.src)
	return nil
}
