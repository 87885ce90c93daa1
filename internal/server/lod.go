package server

import (
	"fmt"
	"net/http"

	"charmtrace/internal/core"
	"charmtrace/internal/lod"
	"charmtrace/internal/structdiff"
)

// lodResponse wraps one executed LOD query with the request's content
// address, mirroring the other analysis responses.
type lodResponse struct {
	Digest      string `json:"digest"`
	Fingerprint string `json:"fingerprint"`
	*lod.Result
}

// serveLod executes both forms of /v1/traces/{digest}/lod — the
// level-of-detail aggregation shaped by URL parameters on GET (resolution,
// steps, max_rows, max_edges, edges, render, diff) or by the equivalent JSON
// spec body on POST, for clients that outgrow URL length; the two answer
// identically (pinned by the serving tests). It resolves the cached
// pyramid, resolves the diff digest if the spec asks for the overlay, runs
// the query, renders.
func (s *Server) serveLod(w http.ResponseWriter, r *http.Request, digest string, opt core.Options, sp lod.Spec) {
	_, view, err := s.resolve(r.Context(), digest, opt, wantPyramid)
	if err != nil {
		httpError(w, err)
		return
	}
	pyr := view.(*lod.Pyramid)
	var diff *structdiff.Diff
	if sp.Diff != "" {
		other, _, err := s.resolve(r.Context(), sp.Diff, opt, wantStructure)
		if err != nil {
			httpError(w, err)
			return
		}
		diff, err = structdiff.Compare(pyr.S, other)
		if err != nil {
			httpError(w, fmt.Errorf("%w: %s", errBadRequest, err))
			return
		}
	}
	res, err := pyr.Query(sp, diff)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSONCompact(w, lodResponse{Digest: digest, Fingerprint: opt.Fingerprint(), Result: res})
}
