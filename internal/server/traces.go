package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"weak"

	"charmtrace/internal/resultcache"
	"charmtrace/internal/store"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// traceEntry is one known trace: its summary (digest and size at once, the
// counts when a decoded form of it is first seen) and weak references to
// the decoded trace and to its read-side table. Nothing here keeps either
// alive: an upload's trace is still reachable a moment later for its first
// extraction, a table lives as long as a resident cache entry holds it, and
// a trace nobody is extracting goes back to the collector — it can be
// re-read from the trace section of its file in the store, the table from
// the table section. mu guards the fields and is held across a load, so
// concurrent requests for one trace decode it once.
type traceEntry struct {
	mu      sync.Mutex
	sum     traceSummary
	counted bool // sum's counts are filled in
	tr      weak.Pointer[trace.Trace]
	tab     weak.Pointer[trace.Table]
	tblBad  bool // the table section failed to load and has not been appended again yet
}

// count fills in the summary's counts the first time a decoded form of the
// trace (the trace itself or its table) is seen.
func (te *traceEntry) count(numPE, events, blocks, chares, idles int) {
	if !te.counted {
		te.counted = true
		te.sum.NumPE, te.sum.Events, te.sum.Blocks, te.sum.Chares, te.sum.Idles = numPE, events, blocks, chares, idles
	}
}

// holdTable records a table (built or loaded) on its entry.
func (te *traceEntry) holdTable(tab *trace.Table) {
	te.tab = weak.Make(tab)
	te.count(tab.NumPE, tab.NumEvents(), tab.Blocks, tab.NumChares(), tab.Idles)
}

// entryFor returns the registered entry for a digest, or nil when this
// node has never seen the trace.
func (s *Server) entryFor(digest string) *traceEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.traces[digest]
}

// registerTrace records a freshly uploaded, already-decoded trace. A
// re-upload of known content keeps the entry and refreshes its reference.
func (s *Server) registerTrace(digest string, tr *trace.Trace, size int64) *traceEntry {
	s.mu.Lock()
	te, ok := s.traces[digest]
	if !ok {
		te = &traceEntry{sum: traceSummary{Digest: digest, Bytes: size}}
		s.traces[digest] = te
	}
	s.mu.Unlock()
	te.mu.Lock()
	defer te.mu.Unlock()
	te.tr = weak.Make(tr)
	te.count(tr.NumPE, len(tr.Events), len(tr.Blocks), len(tr.Chares), len(tr.Idles))
	return te
}

// withEntry runs load on the entry for a digest under its lock. In a cluster
// a digest this node never saw (a failover read, a replica that missed the
// fan-out) is first pulled from a ring sibling; ctx bounds that fetch. A
// digest not shaped like one is never fetched.
func withEntry[T any](ctx context.Context, s *Server, digest string, load func(*traceEntry) (T, error)) (T, error) {
	te := s.entryFor(digest)
	if te == nil {
		var zero T
		if s.cfg.TraceFetch == nil || !resultcache.ValidKey(digest) {
			return zero, errUnknownTrace
		}
		if err := s.traceFromPeer(ctx, digest); err != nil {
			return zero, err
		}
		te = s.entryFor(digest)
	}
	te.mu.Lock()
	defer te.mu.Unlock()
	return load(te)
}

// traceOf is the result cache's Trace hook (through withEntry): the decoded
// trace, wanted for an extraction. It is the upload's trace if that is
// still reachable, else the trace section re-read, its checksum and digest
// checked again. Having the trace in hand it also builds the table and
// appends it to the trace's file if the file has no good table section, so
// that no later read of this trace's results needs the trace. The caller
// holds te.mu.
func (s *Server) traceOf(te *traceEntry) (*trace.Trace, error) {
	st := s.cache.Store()
	tr := te.tr.Value()
	if tr == nil {
		sec, err := st.Open(te.sum.Digest, store.Trace, "")
		if err != nil {
			return nil, fmt.Errorf("server: loading trace: %w", err)
		}
		defer sec.Close()
		var got string
		if tr, got, err = tracefile.ReadAutoDigest(sec); err != nil {
			return nil, fmt.Errorf("server: loading trace %s: %w", te.sum.Digest, err)
		} else if got != te.sum.Digest {
			return nil, fmt.Errorf("server: stored trace %s digests to %s", te.sum.Digest, got)
		}
		s.traceDecodes.Add(1)
		te.tr = weak.Make(tr)
	}
	tab := tr.Table()
	if te.tab.Value() != tab {
		s.tableBuilds.Add(1)
		te.holdTable(tab)
	}
	if te.tblBad || !st.Has(te.sum.Digest, store.Table, "") {
		var enc bytes.Buffer
		err := tracefile.WriteTable(&enc, tab)
		if err == nil {
			err = st.Append(te.sum.Digest, store.Table, "", enc.Bytes())
		}
		if err != nil {
			s.tableErrors.Add(1)
		} else {
			te.tblBad = false
		}
	}
	return tr, nil
}

// tableOf is the result cache's Table hook (through withEntry): the
// read-side table, wanted to decode a disk hit or a peer fill against. A
// table some resident cache entry still holds is returned as is; otherwise
// the table section is read, and if there is none, or it fails its checksum
// or its checks, or is of another version, the trace is decoded and the
// table rebuilt and appended again (traceOf). The caller holds te.mu.
func (s *Server) tableOf(te *traceEntry) (*trace.Table, error) {
	if tab := te.tab.Value(); tab != nil {
		return tab, nil
	}
	if !te.tblBad {
		data, err := s.cache.Store().Read(te.sum.Digest, store.Table, "")
		if err == nil {
			var tab *trace.Table
			if tab, err = tracefile.ReadTable(data); err == nil {
				s.tableDiskLoads.Add(1)
				te.holdTable(tab)
				return tab, nil
			}
		}
		if !errors.Is(err, store.ErrNotFound) {
			s.tableErrors.Add(1)
			te.tblBad = true
		}
	}
	tr, err := s.traceOf(te)
	if err != nil {
		return nil, err
	}
	return tr.Table(), nil
}

// summaryOf returns the trace's summary, loading the table for its counts
// if no decoded form of the trace has been seen since start-up. The caller
// holds te.mu.
func (s *Server) summaryOf(te *traceEntry) (traceSummary, error) {
	if !te.counted {
		if _, err := s.tableOf(te); err != nil {
			return traceSummary{}, err
		}
	}
	return te.sum, nil
}

// residency walks the entries' weak references: how many decoded traces are
// alive and their estimated bytes (the server.traces_decoded and
// server.trace_resident_bytes gauges, sampled at scrape), and how many
// tables. It also brings cache.aux_bytes up to the levels queries have
// built in resident pyramids since the cache last measured them.
func (s *Server) residency() (traces int, traceBytes int64, tables int) {
	s.cache.RefreshViewBytes()
	s.mu.RLock()
	entries := make([]*traceEntry, 0, len(s.traces))
	for _, te := range s.traces {
		entries = append(entries, te)
	}
	s.mu.RUnlock()
	for _, te := range entries {
		te.mu.Lock()
		tr, tab := te.tr.Value(), te.tab.Value()
		te.mu.Unlock()
		if tr != nil {
			traces++
			traceBytes += tr.Bytes()
		}
		if tab != nil {
			tables++
		}
	}
	s.tracesDecodedG.Set(float64(traces))
	s.traceBytesG.Set(float64(traceBytes))
	return traces, traceBytes, tables
}
