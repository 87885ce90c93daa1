package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"charmtrace/internal/core"
	"charmtrace/internal/query"
	"charmtrace/internal/resultcache"
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
// directory is configured — a spool file that is atomically renamed to its
// content address, all in one pass; then the trace is registered. A
// non-empty want is the digest the caller asked for: a stream that digests
// to anything else is rejected before the rename, so not a byte of it is
// trusted.
func (s *Server) ingest(body io.Reader, want string) (traceSummary, error) {
	sink := &countingWriter{w: io.Discard}
	var spool *os.File
	if dir := s.tracesDir(); dir != "" {
		var err error
		if spool, err = os.CreateTemp(dir, spoolPrefix+"*"); err != nil {
			return traceSummary{}, err
		}
		// The spool name never outlives the call: once renamed to its
		// content address there is nothing left for Remove to find.
		defer os.Remove(spool.Name())
		defer spool.Close()
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
		if err := spool.Close(); err != nil {
			return traceSummary{}, err
		}
		dst := filepath.Join(s.tracesDir(), digest+".trace")
		if _, statErr := os.Stat(dst); statErr != nil { // else duplicate content: keep the original
			if err := os.Rename(spool.Name(), dst); err != nil {
				return traceSummary{}, err
			}
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
// only when a cached result exists on disk: they come from the O(phases)
// summary tier (no trace decode, no extraction), so clients can size LOD
// and query requests without a per-trace probe round-trip.
type listEntry struct {
	Digest    string `json:"digest"`
	Bytes     int64  `json:"bytes"`
	NumPhases *int   `json:"num_phases,omitempty"`
	MaxStep   *int32 `json:"max_step,omitempty"`
	Events    *int   `json:"events,omitempty"`
}

// handleList returns every known trace, sorted by digest, each enriched
// from the summary tier when a cached .cstr exists under either preset.
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
			sum, err := s.cache.ReadSummary(resultcache.KeyID(d, fp), fp)
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
	if s.notModified(w, r, digest, "") {
		return
	}
	sum, err := withEntry(r.Context(), s, digest, s.summaryOf)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, sum)
}

// phaseJSON is one phase row of a structure response. Every field is
// preserved by the structure codec, which is what keeps cached responses
// byte-identical to fresh ones.
type phaseJSON struct {
	ID           int32 `json:"id"`
	Runtime      bool  `json:"runtime"`
	Leap         int32 `json:"leap"`
	Offset       int32 `json:"offset"`
	MaxLocalStep int32 `json:"max_local_step"`
	FirstStep    int32 `json:"first_step"`
	LastStep     int32 `json:"last_step"`
	Chares       int   `json:"chares"`
	Events       int   `json:"events"`
}

// structureResponse is the /structure payload.
type structureResponse struct {
	Digest      string      `json:"digest"`
	Fingerprint string      `json:"fingerprint"`
	Events      int         `json:"events"`
	NumPhases   int         `json:"num_phases"`
	MaxStep     int32       `json:"max_step"`
	DAGEdges    int         `json:"dag_edges"`
	Phases      []phaseJSON `json:"phases"`
}

// serveStructure extracts (or recalls) the logical structure and returns
// the phase table.
func (s *Server) serveStructure(w http.ResponseWriter, r *http.Request, digest string, opt core.Options) {
	if resp, ok := s.serveStructureFast(r.Context(), digest, opt); ok {
		writeJSON(w, resp)
		return
	}
	st, _, err := s.resolve(r.Context(), digest, opt, wantStructure)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, structureResponseOf(digest, opt.Fingerprint(), st))
}

// serveStructureFast is the zero-copy serving path for the phase table. A
// memory hit renders from the resident structure as always; a memory miss
// over a matching disk entry renders from the entry's streaming summary —
// no trace load, no full DecodeStructure, no extraction slot — which is
// what makes the first post-restart /structure read O(phases) instead of
// O(events). ok=false (unknown digest, no disk entry, corrupt or stale
// entry) falls back to the full resolve path, whose read self-heals
// bad entries. The two render paths are byte-identical (pinned by the
// serving tests): every response field is preserved by the codec's phase
// table.
func (s *Server) serveStructureFast(ctx context.Context, digest string, opt core.Options) (structureResponse, bool) {
	if s.entryFor(digest) == nil {
		return structureResponse{}, false
	}
	fp := opt.Fingerprint()
	key := resultcache.KeyID(digest, fp)
	if st, ok := s.cache.Lookup(digest, opt); ok {
		resultcache.RecordOutcome(ctx, resultcache.OutcomeMem)
		return structureResponseOf(digest, fp, st), true
	}
	sum, err := s.cache.ReadSummary(key, fp)
	if err != nil {
		return structureResponse{}, false
	}
	resultcache.RecordOutcome(ctx, resultcache.OutcomeDisk)
	resp := structureResponse{
		Digest:      digest,
		Fingerprint: fp,
		Events:      sum.NumEvents,
		NumPhases:   len(sum.Phases),
		MaxStep:     sum.MaxStep,
		DAGEdges:    sum.DAGEdges,
		Phases:      make([]phaseJSON, 0, len(sum.Phases)),
	}
	for i := range sum.Phases {
		p := &sum.Phases[i]
		resp.Phases = append(resp.Phases, phaseJSON{
			ID: int32(i), Runtime: p.Runtime, Leap: p.Leap, Offset: p.Offset,
			MaxLocalStep: p.MaxLocalStep, FirstStep: p.Offset, LastStep: p.Offset + p.MaxLocalStep,
			Chares: p.Chares, Events: p.Events,
		})
	}
	return resp, true
}

// structureResponseOf renders the /structure payload from a decoded or
// freshly extracted structure.
func structureResponseOf(digest, fp string, st *core.Structure) structureResponse {
	resp := structureResponse{
		Digest:      digest,
		Fingerprint: fp,
		Events:      len(st.Step),
		NumPhases:   st.NumPhases(),
		MaxStep:     st.MaxStep(),
		DAGEdges:    st.DAG.NumEdges(),
		Phases:      make([]phaseJSON, 0, st.NumPhases()),
	}
	for i := range st.Phases {
		p := &st.Phases[i]
		lo, hi := p.GlobalSpan()
		resp.Phases = append(resp.Phases, phaseJSON{
			ID: p.ID, Runtime: p.Runtime, Leap: p.Leap, Offset: p.Offset,
			MaxLocalStep: p.MaxLocalStep, FirstStep: lo, LastStep: hi,
			Chares: len(p.Chares), Events: len(p.Events),
		})
	}
	return resp
}

// stepJSON is one event on a chare's logical timeline.
type stepJSON struct {
	Event     int32  `json:"event"`
	Kind      string `json:"kind"`
	Step      int32  `json:"step"`
	Phase     int32  `json:"phase"`
	LocalStep int32  `json:"local_step"`
}

// chareTimeline is one chare's logical timeline.
type chareTimeline struct {
	Chare    int32      `json:"chare"`
	Name     string     `json:"name"`
	Timeline []stepJSON `json:"timeline"`
}

// serveSteps returns per-chare logical timelines: each chare's events in
// logical order with their (phase, local step, global step) positions. An
// optional ?chare=<id> narrows to one chare.
func (s *Server) serveSteps(w http.ResponseWriter, r *http.Request, digest string, opt core.Options) {
	st, _, err := s.resolve(r.Context(), digest, opt, wantStructure)
	if err != nil {
		httpError(w, err)
		return
	}
	tab := st.Table()
	only := -1
	if v := r.URL.Query().Get("chare"); v != "" {
		if only, err = strconv.Atoi(v); err != nil || only < 0 || only >= tab.NumChares() {
			httpError(w, fmt.Errorf("%w: chare %q out of range", errBadRequest, v))
			return
		}
	}
	resp := struct {
		Digest      string          `json:"digest"`
		Fingerprint string          `json:"fingerprint"`
		MaxStep     int32           `json:"max_step"`
		Chares      []chareTimeline `json:"chares"`
	}{Digest: digest, Fingerprint: opt.Fingerprint(), MaxStep: st.MaxStep()}
	for ci, name := range tab.Name {
		if only >= 0 && ci != only {
			continue
		}
		ct := chareTimeline{Chare: int32(ci), Name: name}
		for _, e := range st.EventsOfChare(trace.ChareID(ci)) {
			ct.Timeline = append(ct.Timeline, stepJSON{
				Event: int32(e), Kind: tab.Kind[e].String(),
				Step: st.Step[e], Phase: st.PhaseOf[e], LocalStep: st.LocalStep[e],
			})
		}
		resp.Chares = append(resp.Chares, ct)
	}
	writeJSON(w, resp)
}

// chareMetrics aggregates the §4 metrics over one chare's events.
type chareMetrics struct {
	Chare                int32  `json:"chare"`
	Name                 string `json:"name"`
	Events               int    `json:"events"`
	IdleExperienced      int64  `json:"idle_experienced"`
	DifferentialDuration int64  `json:"differential_duration"`
	Imbalance            int64  `json:"imbalance"`
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
	rep := idx.Report
	perChare := make([]chareMetrics, len(idx.ChareRollup))
	for ci, roll := range idx.ChareRollup {
		perChare[ci] = chareMetrics{
			Chare: int32(ci), Name: idx.Tab.Name[ci], Events: int(roll.Events),
			IdleExperienced:      roll.Sum[query.ColIdleExperienced],
			DifferentialDuration: roll.Sum[query.ColDifferentialDuration],
			Imbalance:            roll.Sum[query.ColImbalance],
		}
	}
	type phaseImbalance struct {
		Phase     int32 `json:"phase"`
		Imbalance int64 `json:"imbalance"`
	}
	resp := struct {
		Digest         string           `json:"digest"`
		Fingerprint    string           `json:"fingerprint"`
		Chares         []chareMetrics   `json:"chares"`
		PhaseImbalance []phaseImbalance `json:"phase_imbalance"`
	}{Digest: digest, Fingerprint: opt.Fingerprint(), Chares: perChare}
	for p, imb := range rep.PhaseImbalance {
		resp.PhaseImbalance = append(resp.PhaseImbalance, phaseImbalance{Phase: int32(p), Imbalance: int64(imb)})
	}
	writeJSON(w, resp)
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
// metrics — in the versioned StatsExport schema. ?reset=1 (requires
// -debug-unsafe) returns the snapshot and then zeroes every metric in
// place, so cached handles keep counting from zero.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reset, allowed := s.resetRequested(w, r)
	if reset && !allowed {
		return
	}
	s.residency()
	e := telemetry.ExportRegistry(s.reg, "charmd", core.StageOrder)
	if s.cfg.NodeName != "" {
		e.Labels = map[string]string{"node": s.cfg.NodeName}
	}
	if s.collector != nil {
		e.SpanCount = s.collector.Len()
		e.SpansDropped = s.collector.Dropped()
	}
	if reset {
		s.reg.Reset()
	}
	w.Header().Set("Content-Type", "application/json")
	e.Write(w)
}

// handleSelfTrace exports the analyzer's own spans as a Chrome trace-event
// file (open at ui.perfetto.dev). Only available with Config.SelfTrace.
// ?reset=1 (requires -debug-unsafe) returns the spans recorded so far and
// then clears the collector.
func (s *Server) handleSelfTrace(w http.ResponseWriter, r *http.Request) {
	if s.collector == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"self-tracing disabled; start charmd with -self-trace"}`)
		return
	}
	reset, allowed := s.resetRequested(w, r)
	if reset && !allowed {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.collector.WriteChromeTrace(w)
	if reset {
		s.collector.Reset()
	}
}
