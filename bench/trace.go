package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one interval of one traced request. Spans of a request share
// Req; Parent is the ID of the span that caused this one (-1 for the
// root). Times are nanoseconds since the root's start.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. The root is what the client saw (request written to RES
// line read); its only child is the server's own timeline, cut into the
// stages between the lifecycle stamps of the verdict's trace= token.
const (
	spanClient    = "client.request"
	spanServer    = "server.request"
	spanAdmitWait = "admission.wait" // enqueue -> admit
	spanExec      = "engine.exec"    // admit -> install: execution, forks, restarts
	spanPark      = "engine.park"    // park -> resume, inside exec
	spanSyncWait  = "commit.sync"    // install -> commit: group-commit window + WAL sync
)

// buildSpans converts one verdict's trace= token into the request's span
// tree. The server's offsets are relative to its own submit instant,
// which the client cannot observe, so the server span is centred in the
// root: the residual is split evenly between the two wire directions.
// Instant stages (fork, restart, promotion, defer) become zero-length
// spans under exec. It returns nil for a token that does not parse or
// has no commit stamp.
func buildSpans(req int, elapsed time.Duration, token string) []span {
	events, _ := obs.ParseTraceEpoch(token)
	var admit, install, commit int64 = -1, -1, -1
	for _, ev := range events {
		switch ev.Stage {
		case obs.StageAdmit:
			if admit < 0 {
				admit = int64(ev.At)
			}
		case obs.StageInstall:
			install = int64(ev.At)
		case obs.StageCommit:
			commit = int64(ev.At)
		}
	}
	if commit < 0 {
		return nil
	}
	if admit < 0 {
		admit = 0
	}
	if install < admit || install > commit {
		install = commit
	}
	root := int64(elapsed)
	if commit > root {
		// Two clocks read at four different instants: a server total a
		// hair above the client's is measurement noise, not negative
		// wire time.
		root = commit
	}
	off := (root - commit) / 2
	spans := []span{
		{req, 0, -1, spanClient, 0, root},
		{req, 1, 0, spanServer, off, off + commit},
		{req, 2, 1, spanAdmitWait, off, off + admit},
		{req, 3, 1, spanExec, off + admit, off + install},
		{req, 4, 1, spanSyncWait, off + install, off + commit},
	}
	const execID = 3
	var parkedAt int64 = -1
	for _, ev := range events {
		at := off + int64(ev.At)
		switch ev.Stage {
		case obs.StagePark:
			parkedAt = at
		case obs.StageResume:
			if parkedAt >= 0 {
				spans = append(spans, span{req, len(spans), execID, spanPark, parkedAt, at})
				parkedAt = -1
			}
		case obs.StageFork, obs.StageRestart, obs.StagePromotion, obs.StageDefer:
			spans = append(spans, span{req, len(spans), execID, "engine." + ev.Stage, at, at})
		}
	}
	return spans
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (children may overlap each other and are clipped to the
// parent).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// selfTimes returns each named layer's self time summed over the spans of
// one request.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += selfTime(s, kids[s.ID])
	}
	return out
}

// stageBudget is the per-request stage times of a traced phase, each
// column sorted for percentile picking.
type stageBudget struct {
	n                                              int
	admitWait, exec, syncWait, park, server, resid []int64
	client                                         []int64
}

// traceFileSpans bounds the span trees written per workload: every
// traced request feeds the percentiles, the file keeps the first ones.
const traceFileSpans = 2000

// analyzeTraces builds every traced request's span tree, derives the
// stage budget, and returns the span trees of the first requests.
func analyzeTraces(samples []tracedSample) (*stageBudget, []span) {
	b := &stageBudget{}
	var keep []span
	for i, ts := range samples {
		spans := buildSpans(i, ts.elapsed, ts.trace)
		if spans == nil {
			continue
		}
		self := selfTimes(spans)
		b.n++
		b.client = append(b.client, spans[0].dur())
		b.server = append(b.server, spans[1].dur())
		b.resid = append(b.resid, self[spanClient])
		b.admitWait = append(b.admitWait, self[spanAdmitWait])
		b.exec = append(b.exec, spans[3].dur())
		b.park = append(b.park, self[spanPark])
		b.syncWait = append(b.syncWait, self[spanSyncWait])
		if b.n <= traceFileSpans {
			keep = append(keep, spans...)
		}
	}
	for _, col := range [][]int64{b.admitWait, b.exec, b.syncWait, b.park, b.server, b.resid, b.client} {
		sortInt64(col)
	}
	return b, keep
}

// layerTrace derives the trace.* metrics: each stage's p50 and p95 over
// the traced requests, the overhead tracing cost against the untraced
// phase of the same run, and how closely the stage medians rebuild the
// traced client median.
func layerTrace(b *stageBudget, untracedTPS, tracedTPS float64) metricSet {
	m := metricSet{}
	cols := []struct {
		name string
		col  []int64
	}{
		{"admit_wait", b.admitWait}, {"exec", b.exec}, {"sync_wait", b.syncWait},
		{"park", b.park}, {"server_total", b.server}, {"client_residual", b.resid},
	}
	for _, c := range cols {
		m.put("trace."+c.name+"_p50_us", quantile(c.col, 0.50)/1e3, "us")
		m.put("trace."+c.name+"_p95_us", quantile(c.col, 0.95)/1e3, "us")
	}
	m.put("trace.client_p50_us", quantile(b.client, 0.50)/1e3, "us")
	rebuilt := quantile(b.admitWait, 0.5) + quantile(b.exec, 0.5) + quantile(b.syncWait, 0.5) + quantile(b.resid, 0.5)
	m.put("trace.budget_closure_pct", 100*ratio(rebuilt, quantile(b.client, 0.5)), "%")
	m.put("trace.samples", float64(b.n), "count")
	m.put("trace.overhead_pct", 100*ratio(untracedTPS-tracedTPS, untracedTPS), "%")
	return m
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Traced   int    `json:"traced_requests"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTraceFile(outDir, workload string, traced int, spans []span) (string, error) {
	path := filepath.Join(outDir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: workload, Traced: traced, Spans: spans,
		Note: "span trees of the first traced requests; times are ns since the root span's start; " +
			"the server span is centred in the root because the client cannot observe the server's submit instant",
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
