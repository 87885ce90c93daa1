package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// verdicts is the run-wide answer record shared by every client: the
// SHA-256 each distinct request was first answered with, the bodies kept
// for the post-run causal check, and the first few failure reasons.
type verdicts struct {
	mu       sync.Mutex
	sha      map[string][32]byte
	kept     []keptBody
	keepMax  int
	failures []string
}

// keptBody is one sampled /steps or /query answer awaiting the checker.
type keptBody struct {
	trace int
	body  []byte
}

func newVerdicts(keep int) *verdicts {
	return &verdicts{sha: make(map[string][32]byte), keepMax: keep}
}

func (v *verdicts) fail(format string, args ...any) {
	v.mu.Lock()
	if len(v.failures) < 20 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// sameAnswer records the digest of a request's first answer and reports
// whether a repeat matches it.
func (v *verdicts) sameAnswer(key string, sum [32]byte) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	first, seen := v.sha[key]
	if !seen {
		v.sha[key] = sum
		return true
	}
	return first == sum
}

func (v *verdicts) keep(trace int, body []byte) {
	v.mu.Lock()
	if len(v.kept) < v.keepMax {
		v.kept = append(v.kept, keptBody{trace, body})
	}
	v.mu.Unlock()
}

// client is one worker's connection to the program. It is not safe for
// concurrent use; each worker owns one.
type client struct {
	base string
	http *http.Client
	rec  *recorder
	v    *verdicts
	etag map[string]string // path -> ETag captured at preload, shared read-only
}

// newClients builds n single-connection clients against base. The Go
// transport's default — advertise gzip, decompress transparently — is what
// the issue means by "gzip accepted".
func newClients(n int, base string, v *verdicts, etag map[string]string) []*client {
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{
			base: base,
			http: &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			},
			v:    v,
			etag: etag,
		}
	}
	return out
}

func (c *client) closeIdle() { c.http.CloseIdleConnections() }

// answer is what a request returned.
type answer struct {
	status int
	body   []byte
	header http.Header
}

// send performs one request and records it under route. Transport errors
// come back as status 0.
func (c *client) send(route, method, path string, body []byte, header map[string]string) answer {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Duration(0)
	if c.rec != nil {
		start = c.rec.since()
	}
	var a answer
	req, err := http.NewRequest(method, c.base+path, rd)
	if err == nil {
		for k, val := range header {
			req.Header.Set(k, val)
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			a.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			a.status, a.header = resp.StatusCode, resp.Header
		}
	}
	if err != nil {
		a.status = 0
		c.v.fail("%s %s: %v", method, path, err)
	}
	if c.rec != nil {
		c.rec.reqs = append(c.rec.reqs, sample{route: route, ok: a.status != 0 && a.status < 400, due: start, start: start, end: c.rec.since()})
	}
	return a
}

// get sends one request of the exploration mix and judges the answer: the
// expected status (304 for a revalidation, 200 otherwise), the same bytes
// as every earlier answer to the same request, and — for a sample of
// /steps and /query answers — a body kept for the causal check.
func (c *client) get(r *request) bool {
	route := routeOf[r.class]
	var body []byte
	var header map[string]string
	if r.body != "" {
		body = []byte(r.body)
		header = map[string]string{"Content-Type": "application/json"}
	}
	if r.cond {
		tag, ok := c.etag[r.path]
		if !ok {
			c.v.fail("revalidate %s: no ETag was captured at preload", r.path)
			return false
		}
		header = map[string]string{"If-None-Match": tag}
	}
	a := c.send(route, r.method, r.path, body, header)
	if r.cond {
		if a.status != http.StatusNotModified || len(a.body) != 0 {
			c.v.fail("revalidate %s: status %d with %d body bytes, want 304 and none", r.path, a.status, len(a.body))
			return false
		}
		return true
	}
	if a.status != http.StatusOK {
		c.v.fail("%s %s: status %d: %s", r.method, r.path, a.status, firstLine(a.body))
		return false
	}
	if !c.v.sameAnswer(r.key(), sha256.Sum256(a.body)) {
		c.v.fail("%s %s: answer differs from an earlier answer to the same request", r.method, r.path)
		return false
	}
	if route == "steps" || route == "query" {
		c.v.keep(r.trace, a.body)
	}
	return true
}

// upload posts one trace and returns the digest the server assigned.
func (c *client) upload(data []byte) (string, bool) {
	a := c.send("upload", "POST", "/v1/traces", data, map[string]string{"Content-Type": "application/octet-stream"})
	if a.status != http.StatusCreated {
		c.v.fail("upload: status %d: %s", a.status, firstLine(a.body))
		return "", false
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(a.body, &out); err != nil || len(out.Digest) != 64 {
		c.v.fail("upload: answer carries no digest: %s", firstLine(a.body))
		return "", false
	}
	return out.Digest, true
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}
