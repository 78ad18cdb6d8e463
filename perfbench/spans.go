package main

import (
	"sort"
	"time"

	"scalegnn/internal/obs"
)

// spanSet indexes the spans of one traced phase by name and parent.
type spanSet struct {
	spans []obs.SpanRecord
	kids  map[uint64][]int
}

func indexSpans(spans []obs.SpanRecord) *spanSet {
	s := &spanSet{spans: spans, kids: map[uint64][]int{}}
	for i, sp := range spans {
		if sp.Parent != 0 {
			s.kids[sp.Parent] = append(s.kids[sp.Parent], i)
		}
	}
	return s
}

// named returns the spans called name, in start order.
func (s *spanSet) named(name string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, sp := range s.spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durs returns the durations of the spans called name.
func (s *spanSet) durs(name string) []time.Duration { return spanDurs(s.named(name)) }

// children returns the direct children of the span with the given id.
func (s *spanSet) children(id uint64) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, i := range s.kids[id] {
		out = append(out, s.spans[i])
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children count once).
func (s *spanSet) selfTime(sp obs.SpanRecord) time.Duration {
	kids := s.children(sp.ID)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	end := sp.Start + sp.Dur
	covered := time.Duration(0)
	cur := sp.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.Start+k.Dur, end)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return sp.Dur - covered
}

// under returns the direct children of parent called name, in start order.
func (s *spanSet) under(parent obs.SpanRecord, name string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, k := range s.children(parent.ID) {
		if k.Name == name {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// afterWarm returns the spans called name (train.batch, train.validate) of
// the first traced train.run, leaving out its first warm epochs.
func (s *spanSet) afterWarm(name string, warm int) []obs.SpanRecord {
	runs := s.named("train.run")
	if len(runs) == 0 {
		return nil
	}
	var out []obs.SpanRecord
	for i, ep := range s.under(runs[0], "train.epoch") {
		if i >= warm {
			out = append(out, s.under(ep, name)...)
		}
	}
	return out
}

func spanDurs(spans []obs.SpanRecord) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		out[i] = sp.Dur
	}
	return out
}

// within returns the spans that lie inside the interval of one of the
// containers; both lists are in start order.
func within(spans, containers []obs.SpanRecord) []obs.SpanRecord {
	var out []obs.SpanRecord
	j := 0
	for _, sp := range spans {
		for j < len(containers) && containers[j].Start+containers[j].Dur < sp.Start {
			j++
		}
		if j < len(containers) && containers[j].Start <= sp.Start && sp.Start+sp.Dur <= containers[j].Start+containers[j].Dur {
			out = append(out, sp)
		}
	}
	return out
}
