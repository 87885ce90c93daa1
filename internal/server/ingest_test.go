package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"charmtrace/internal/store"
	"charmtrace/internal/tracefile"
)

// firstReadSpy calls onFirst just before the first byte is read.
type firstReadSpy struct {
	io.Reader
	onFirst func()
}

func (r *firstReadSpy) Read(p []byte) (int, error) {
	if r.onFirst != nil {
		r.onFirst()
		r.onFirst = nil
	}
	return r.Reader.Read(p)
}

// TestRestartSweepsStalePeerPullSpool: a crash in the middle of a peer pull
// leaves its spool file in the trace directory, and the next start must
// sweep it once it is stale. The spool's name is observed from a real pull
// rather than assumed, which holds the pull and the sweep to one prefix.
func TestRestartSweepsStalePeerPullSpool(t *testing.T) {
	dir := t.TempDir()
	traces := filepath.Join(dir, "traces")
	body := encodedJacobi(t, 0)
	digest := tracefile.DigestBytes(body)

	var spool string
	srv, err := New(Config{DataDir: dir, TraceFetch: func(context.Context, string) (io.ReadCloser, error) {
		return io.NopCloser(&firstReadSpy{Reader: bytes.NewReader(body), onFirst: func() {
			entries, _ := os.ReadDir(traces)
			for _, de := range entries {
				if strings.HasPrefix(de.Name(), ".") {
					spool = de.Name()
				}
			}
		}}), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+digest, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("peer-pulled trace: status %d: %s", rec.Code, rec.Body)
	}
	if spool == "" {
		t.Fatal("the peer pull spooled nothing into the trace directory")
	}
	if _, err := os.Stat(filepath.Join(traces, spool)); !os.IsNotExist(err) {
		t.Fatalf("spool %s outlived a completed pull (stat: %v)", spool, err)
	}

	// What a crash mid-pull leaves behind: one such file from hours ago, and
	// one young enough to belong to a pull still running in another process.
	stale, fresh := filepath.Join(traces, spool), filepath.Join(traces, spool+"-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, body[:len(body)/2], 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("restart left the stale peer-pull spool %s behind (stat: %v)", spool, err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("restart removed a spool file younger than the cutoff: %v", err)
	}
	if !openStore(t, dir).Has(digest, store.Trace, "") {
		t.Error("restart disturbed the persisted trace")
	}
}
