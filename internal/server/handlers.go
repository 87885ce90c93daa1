package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"charmtrace/internal/core"
	"charmtrace/internal/jsonw"
	"charmtrace/internal/query"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/store"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// traceSummary is the JSON shape shared by upload, get-trace and list.
type traceSummary struct {
	Digest string `json:"digest"`
	Bytes  int64  `json:"bytes"`
	NumPE  int    `json:"num_pe"`
	Events int    `json:"events"`
	Blocks int    `json:"blocks"`
	Chares int    `json:"chares"`
	Idles  int    `json:"idles"`
}

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ingest is the one way trace bytes enter this node, from a client upload
// or a ring sibling alike: the stream (text or binary, auto-detected) goes
// through the decoder, the SHA-256 content digest, and — when a data
// directory is configured — the store's spool, which becomes the trace's
// file under its content address, all in one pass; then the trace is
// registered. A non-empty want is the digest the caller asked for: a stream
// that digests to anything else is dropped unpublished, so not a byte of it
// is trusted.
func (s *Server) ingest(body io.Reader, want string) (traceSummary, error) {
	sink := &countingWriter{w: io.Discard}
	var spool *store.Spool
	if st := s.cache.Store(); st != nil {
		var err error
		if spool, err = st.Spool(); err != nil {
			return traceSummary{}, err
		}
		defer spool.Abort()
		sink.w = spool
	}
	tr, digest, err := tracefile.ReadAutoDigest(io.TeeReader(body, sink))
	if err != nil {
		return traceSummary{}, err
	}
	if want != "" && digest != want {
		return traceSummary{}, fmt.Errorf("server: trace digests to %s, want %s", digest, want)
	}
	if spool != nil {
		if err := spool.Publish(digest); err != nil {
			return traceSummary{}, err
		}
	}
	return s.registerTrace(digest, tr, sink.n).sum, nil
}

// handleUpload ingests a client's trace. Uploads above MaxUploadBytes map
// to 413, malformed traces to 400.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	s.uploads.Add(1)
	sum, err := s.ingest(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes), "")
	if err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, sum)
}

// listEntry is one GET /v1/traces row. The structure fields are present
// only when a cached result exists on disk: they come from the streamed
// summary tier (no trace decode, no extraction), so clients can size LOD
// and query requests without a per-trace probe round-trip. Listing is not
// use: it counts no cache hit and leaves the disk GC's recency alone.
type listEntry struct {
	Digest    string `json:"digest"`
	Bytes     int64  `json:"bytes"`
	NumPhases *int   `json:"num_phases,omitempty"`
	MaxStep   *int32 `json:"max_step,omitempty"`
	Events    *int   `json:"events,omitempty"`
}

// handleList returns every known trace, sorted by digest, each enriched
// from the summary tier when a result is on disk under either preset.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	digests := make([]string, 0, len(s.traces))
	sizes := make(map[string]int64, len(s.traces))
	for d, te := range s.traces {
		digests = append(digests, d)
		sizes[d] = te.sum.Bytes
	}
	s.mu.RUnlock()
	sort.Strings(digests)
	fps := []string{core.DefaultOptions().Fingerprint(), core.MessagePassingOptions().Fingerprint()}
	out := struct {
		Traces []listEntry `json:"traces"`
	}{Traces: make([]listEntry, 0, len(digests))}
	for _, d := range digests {
		e := listEntry{Digest: d, Bytes: sizes[d]}
		for _, fp := range fps {
			sum, err := s.cache.PeekSummary(d, fp)
			if err != nil {
				continue
			}
			np, ms, ev := len(sum.Phases), sum.MaxStep, sum.NumEvents
			e.NumPhases, e.MaxStep, e.Events = &np, &ms, &ev
			break
		}
		out.Traces = append(out.Traces, e)
	}
	writeJSON(w, out)
}

// handleTrace returns one trace's summary. In a cluster a digest this node
// never saw is pulled from a ring sibling first.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if _, done := s.notModified(w, r, digest, ""); done {
		return
	}
	sum, err := withEntry(r.Context(), s, digest, s.summaryOf)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, sum)
}

// render writes one row-shaped analysis response — digest, fingerprint,
// then the members the route appends — from the caller's columns through
// the append-style writer, which stops at the first failed write and once
// the request's context is done. A render cut short is counted, and only
// one that failed before its first byte can still be answered with an error.
func (s *Server) render(w http.ResponseWriter, r *http.Request, digest string, opt core.Options, members func(*jsonw.Writer)) {
	w.Header().Set("Content-Type", "application/json")
	jw := jsonw.New(r.Context(), w)
	jw.Obj().Key("digest").Str(digest).Key("fingerprint").Str(opt.Fingerprint())
	members(jw)
	jw.End()
	if err := jw.Close(); err != nil {
		s.renderAborted.Add(1)
		if g, ok := w.(*gzipResponseWriter); ok {
			g.dropCapture() // a cut-short body is never stored
		}
		if !jw.Flushed() {
			httpError(w, err)
		}
	}
}

// serveStructure returns the phase table from its cheapest holder: the
// resident structure on a memory hit; on a memory miss over a matching disk
// entry the entry's streaming summary — no table load, no DecodeStructure,
// no extraction slot: the first post-restart read costs the phase table's
// bytes, not a decode of every event; otherwise (unknown digest, no disk
// entry, a corrupt or stale one) the full resolve path, whose read
// self-heals bad entries. All three arrive as the same summary, so the
// answers cannot differ.
func (s *Server) serveStructure(w http.ResponseWriter, r *http.Request, digest string, opt core.Options) {
	ctx := r.Context()
	var sum *core.StructureSummary
	if s.entryFor(digest) != nil {
		fp := opt.Fingerprint()
		if st, ok := s.cache.Lookup(digest, opt); ok {
			resultcache.RecordOutcome(ctx, resultcache.OutcomeMem)
			sum = phaseTable(st)
		} else if sum, _ = s.cache.ReadSummary(digest, fp); sum != nil {
			resultcache.RecordOutcome(ctx, resultcache.OutcomeDisk)
		}
	}
	if sum == nil {
		st, _, err := s.resolve(ctx, digest, opt, wantStructure)
		if err != nil {
			httpError(w, err)
			return
		}
		sum = phaseTable(st)
	}
	s.render(w, r, digest, opt, func(jw *jsonw.Writer) {
		jw.Key("events").Int(int64(sum.NumEvents))
		jw.Key("num_phases").Int(int64(len(sum.Phases)))
		jw.Key("max_step").Int(int64(sum.MaxStep))
		jw.Key("dag_edges").Int(int64(sum.DAGEdges))
		jw.Key("phases").Arr()
		for i := range sum.Phases {
			p := &sum.Phases[i]
			jw.Obj().Key("id").Int(int64(i)).Key("runtime").Bool(p.Runtime).Key("leap").Int(int64(p.Leap))
			jw.Key("offset").Int(int64(p.Offset)).Key("max_local_step").Int(int64(p.MaxLocalStep))
			jw.Key("first_step").Int(int64(p.Offset)).Key("last_step").Int(int64(p.Offset + p.MaxLocalStep))
			jw.Key("chares").Int(int64(p.Chares)).Key("events").Int(int64(p.Events)).End()
		}
		jw.End()
	})
}

// phaseTable is the summary of a resident structure: what
// DecodeStructureSummary reads back from its encoding.
func phaseTable(st *core.Structure) *core.StructureSummary {
	sum := &core.StructureSummary{
		NumEvents: len(st.Step),
		Phases:    make([]core.PhaseSummary, len(st.Phases)),
		DAGEdges:  st.DAG.NumEdges(),
		MaxStep:   st.MaxStep(),
	}
	for i := range st.Phases {
		p := &st.Phases[i]
		sum.Phases[i] = core.PhaseSummary{
			Runtime: p.Runtime, Chares: len(p.Chares), Events: len(p.Events),
			MaxLocalStep: p.MaxLocalStep, Offset: p.Offset, Leap: p.Leap,
		}
	}
	return sum
}

// serveSteps returns per-chare logical timelines: each chare's events in
// logical order with their (phase, local step, global step) positions,
// streamed from the structure's per-chare event lists and the table's
// columns. An optional ?chare=<id> narrows to one chare.
func (s *Server) serveSteps(w http.ResponseWriter, r *http.Request, digest string, opt core.Options) {
	st, _, err := s.resolve(r.Context(), digest, opt, wantStructure)
	if err != nil {
		httpError(w, err)
		return
	}
	tab := st.Table()
	lo, hi := 0, tab.NumChares()
	if v := r.URL.Query().Get("chare"); v != "" {
		if lo, err = strconv.Atoi(v); err != nil || lo < 0 || lo >= hi {
			httpError(w, fmt.Errorf("%w: chare %q out of range", errBadRequest, v))
			return
		}
		hi = lo + 1
	}
	s.render(w, r, digest, opt, func(jw *jsonw.Writer) {
		jw.Key("max_step").Int(int64(st.MaxStep()))
		// A trace with no chares, like a chare with no events below, renders
		// null: the nil slice these arrays were while they were structs.
		if jw.Key("chares"); lo == hi {
			jw.Null()
			return
		}
		jw.Arr()
		for ci := lo; ci < hi; ci++ {
			jw.Obj().Key("chare").Int(int64(ci)).Key("name").Str(tab.Name[ci]).Key("timeline")
			if events := st.EventsOfChare(trace.ChareID(ci)); len(events) == 0 {
				jw.Null()
			} else {
				jw.Arr()
				for _, e := range events {
					if jw.Err() != nil {
						return
					}
					jw.Obj().Key("event").Int(int64(e)).Key("kind").Str(tab.Kind[e].String())
					jw.Key("step").Int(int64(st.Step[e])).Key("phase").Int(int64(st.PhaseOf[e]))
					jw.Key("local_step").Int(int64(st.LocalStep[e])).End()
				}
				jw.End()
			}
			jw.End()
		}
		jw.End()
	})
}

// serveMetrics reports the Section 4 metrics aggregated per chare, with the
// per-phase imbalance table, from the query index's per-chare rollups and
// report — nothing is recomputed per request.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request, digest string, opt core.Options) {
	_, view, err := s.resolve(r.Context(), digest, opt, wantIndex)
	if err != nil {
		httpError(w, err)
		return
	}
	idx := view.(*query.Index)
	s.render(w, r, digest, opt, func(jw *jsonw.Writer) {
		jw.Key("chares").Arr()
		for ci := range idx.ChareRollup {
			roll := &idx.ChareRollup[ci]
			jw.Obj().Key("chare").Int(int64(ci)).Key("name").Str(idx.Tab.Name[ci]).Key("events").Int(roll.Events)
			jw.Key("idle_experienced").Int(roll.Sum[query.ColIdleExperienced])
			jw.Key("differential_duration").Int(roll.Sum[query.ColDifferentialDuration])
			jw.Key("imbalance").Int(roll.Sum[query.ColImbalance]).End()
		}
		jw.End()
		if jw.Key("phase_imbalance"); len(idx.Report.PhaseImbalance) == 0 {
			jw.Null() // as the nil slice it was
			return
		}
		jw.Arr()
		for p, imb := range idx.Report.PhaseImbalance {
			jw.Obj().Key("phase").Int(int64(p)).Key("imbalance").Int(int64(imb)).End()
		}
		jw.End()
	})
}

// handleStructDiff compares the recovered structures of two cached traces
// (?a=<digest>&b=<digest>, same option parameters as /structure applied to
// both sides).
func (s *Server) handleStructDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	da, db := q.Get("a"), q.Get("b")
	if da == "" || db == "" {
		httpError(w, fmt.Errorf("%w: need a=<digest> and b=<digest>", errBadRequest))
		return
	}
	opt, err := s.extractOptions(r)
	if err != nil {
		httpError(w, err)
		return
	}
	sa, _, err := s.resolve(r.Context(), da, opt, wantStructure)
	if err != nil {
		httpError(w, err)
		return
	}
	sb, _, err := s.resolve(r.Context(), db, opt, wantStructure)
	if err != nil {
		httpError(w, err)
		return
	}
	diff, err := structdiff.Compare(sa, sb)
	if err != nil {
		httpError(w, fmt.Errorf("%w: %s", errBadRequest, err))
		return
	}
	writeJSON(w, struct {
		A           string           `json:"a"`
		B           string           `json:"b"`
		Fingerprint string           `json:"fingerprint"`
		Equivalent  bool             `json:"equivalent"`
		Report      string           `json:"report"`
		Diff        *structdiff.Diff `json:"diff"`
	}{A: da, B: db, Fingerprint: opt.Fingerprint(), Equivalent: diff.Empty(), Report: diff.String(), Diff: diff})
}

// handleStats exports the server-wide registry — request latencies, cache
// hit/miss/evict counters, in-flight gauge, aggregated pipeline stage
// metrics — in the versioned StatsExport schema.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.residency()
	e := telemetry.ExportRegistry(s.reg, "charmd", core.StageOrder)
	if s.cfg.NodeName != "" {
		e.Labels = map[string]string{"node": s.cfg.NodeName}
	}
	w.Header().Set("Content-Type", "application/json")
	e.Write(w)
}
