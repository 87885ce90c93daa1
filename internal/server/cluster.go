package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"charmtrace/internal/resultcache"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// The /v1/internal/* endpoints are the node-to-node and gateway-to-node
// data plane: encoded result entries move between ring replicas here, and
// raw trace bytes backfill nodes that missed an upload fan-out. They serve
// strictly local state — an internal read never triggers a peer fetch or
// an extraction, which is what makes peer fill loop-free.

// handleInternalResultGet streams one encoded cache entry from disk. The
// body is the exact .cstr file (magic header included), so a receiving
// node can PutEntry it verbatim and a gateway can relay it for
// replication without decoding.
func (s *Server) handleInternalResultGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rc, size, err := s.cache.OpenEntry(key)
	if err != nil {
		httpError(w, fmt.Errorf("%w: no entry %s", errUnknownTrace, key))
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, rc)
}

// handleInternalResultPut accepts a replicated entry and installs it in
// the local disk cache. Sender mistakes (bad key, not an encoded
// structure, oversized) are 400s; local failures are 500s. Installing is
// idempotent, so replaying a replication push is harmless.
func (s *Server) handleInternalResultPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	n, err := s.cache.PutEntry(key, r.Body, s.cfg.MaxEntryBytes)
	if err != nil {
		if errors.Is(err, resultcache.ErrBadEntry) {
			httpError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		} else {
			httpError(w, err)
		}
		return
	}
	writeJSON(w, struct {
		Key   string `json:"key"`
		Bytes int64  `json:"bytes"`
	}{Key: key, Bytes: n})
}

// handleInternalTraceGet streams the raw persisted trace file. Only
// locally held bytes are served — a node that lacks the trace answers 404
// rather than asking its own siblings, so two nodes missing the same
// digest cannot chase each other.
func (s *Server) handleInternalTraceGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	dir := s.tracesDir()
	if s.entryFor(digest) == nil || dir == "" {
		httpError(w, errUnknownTrace)
		return
	}
	f, err := os.Open(filepath.Join(dir, digest+".trace"))
	if err != nil {
		// Registered but memory-only (no data dir at upload time, or the
		// file was removed underneath us): treat as not held.
		httpError(w, errUnknownTrace)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size(), 10))
	io.Copy(w, f)
}

// traceFromPeer pulls a trace this node never saw from its ring siblings,
// verifying the content digest before trusting a byte of it, persisting
// it exactly like an upload, and registering it for every later request.
// Concurrent callers may fetch twice; registerTrace keeps the first.
func (s *Server) traceFromPeer(ctx context.Context, digest string) (*trace.Trace, error) {
	body, err := s.cfg.TraceFetch(ctx, digest)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (peer fetch: %v)", errUnknownTrace, digest, err)
	}
	defer body.Close()

	sink := &countingWriter{w: io.Discard}
	var spool *os.File
	if dir := s.tracesDir(); dir != "" {
		f, err := os.CreateTemp(dir, ".peerfill-*")
		if err != nil {
			return nil, err
		}
		spool = f
		sink.w = f
		defer func() {
			if spool != nil {
				spool.Close()
				os.Remove(spool.Name())
			}
		}()
	}

	tr, got, err := tracefile.ReadAutoDigest(io.TeeReader(body, sink))
	if err != nil {
		return nil, fmt.Errorf("server: peer trace %s: %w", digest, err)
	}
	if got != digest {
		return nil, fmt.Errorf("server: peer sent trace digesting to %s, want %s", got, digest)
	}
	if spool != nil {
		if err := spool.Close(); err != nil {
			return nil, err
		}
		dst := filepath.Join(s.tracesDir(), digest+".trace")
		if _, statErr := os.Stat(dst); statErr == nil {
			os.Remove(spool.Name())
		} else if err := os.Rename(spool.Name(), dst); err != nil {
			os.Remove(spool.Name())
			spool = nil
			return nil, err
		}
		spool = nil
	}
	s.registerTrace(digest, tr, sink.n)
	s.tracePeerFills.Add(1)
	return tr, nil
}
