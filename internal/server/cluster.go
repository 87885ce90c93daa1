package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"charmtrace/internal/store"
)

// The /v1/internal/* endpoints are the node-to-node data plane, both of
// them reads a ring sibling pulls from: encoded result entries for peer
// cache fill, and raw trace bytes for nodes that missed an upload fan-out.
// They serve strictly local state — an internal read never triggers a peer
// fetch or an extraction, which is what makes peer fill loop-free.

// handleInternalResultGet streams one encoded cache entry from disk, found
// in the file of the trace that the trace query parameter names. A request
// without one finds nothing and gets 404, so its sender extracts locally.
// The body is the result section's payload, the encoded structure (magic
// header included), which the pulling node decodes against its own copy of
// the trace and persists verbatim.
func (s *Server) handleInternalResultGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rc, size, err := s.cache.OpenEntry(r.URL.Query().Get("trace"), key)
	if err != nil {
		httpError(w, fmt.Errorf("%w: no entry %s", errUnknownTrace, key))
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, rc)
}

// handleInternalTraceGet streams the raw persisted trace: the trace
// section of its file, checked before a byte is sent. Only locally held
// bytes are served — a node that lacks the trace answers 404 rather than
// asking its own siblings, so two nodes missing the same digest cannot
// chase each other.
func (s *Server) handleInternalTraceGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if s.entryFor(digest) == nil {
		httpError(w, errUnknownTrace)
		return
	}
	sec, err := s.cache.Store().Open(digest, store.Trace, "")
	if err == nil {
		defer sec.Close()
		err = sec.Verify()
	}
	if err != nil {
		// The stored bytes are gone or damaged: treat as not held.
		httpError(w, errUnknownTrace)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(sec.Size(), 10))
	sec.CopyTo(w)
}

// traceFromPeer pulls a trace this node never saw from its ring siblings
// and ingests it exactly like an upload, except that the content digest
// must be the one asked for. Concurrent callers may fetch twice;
// registerTrace keeps one entry.
func (s *Server) traceFromPeer(ctx context.Context, digest string) error {
	body, err := s.cfg.TraceFetch(ctx, digest)
	if err != nil {
		return fmt.Errorf("%w: %s (peer fetch: %v)", errUnknownTrace, digest, err)
	}
	defer body.Close()
	if _, err := s.ingest(body, digest); err != nil {
		return fmt.Errorf("server: peer trace %s: %w", digest, err)
	}
	s.tracePeerFills.Add(1)
	return nil
}
