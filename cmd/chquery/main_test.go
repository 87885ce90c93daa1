package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/server"
	"charmtrace/internal/tracefile"
)

// TestNeedsServer: chquery is the charmd client only. Without -server it
// refuses, naming the command that runs the same spec locally.
func TestNeedsServer(t *testing.T) {
	if err := run(nil, io.Discard); err == nil || !strings.Contains(err.Error(), "structure -render query|lod") {
		t.Fatalf("chquery with no -server: %v, want a refusal naming structure -render query|lod", err)
	}
}

// TestRefusesMismatchedFlags: -all pages a query; a LOD response has no
// pages, so the pair is refused before any request, as is an unknown render.
func TestRefusesMismatchedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-server", "http://127.0.0.1:1", "-digest", "d", "-render", "lod", "-all"},
		{"-server", "http://127.0.0.1:1", "-digest", "d", "-render", "steps"},
	} {
		if err := run(args, io.Discard); err == nil || strings.Contains(err.Error(), "connect") {
			t.Errorf("chquery %s: %v, want a refusal before any request", strings.Join(args, " "), err)
		}
	}
}

// TestDefaultBodies: with no -spec, the bodies posted are
// {"select":"structure"} to .../query and {} to .../lod.
func TestDefaultBodies(t *testing.T) {
	var mu sync.Mutex
	bodies := map[string]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies[r.URL.Path] = string(b)
		mu.Unlock()
		w.Write([]byte(`{"select":"structure","total_rows":0,"rows":[]}`))
	}))
	defer srv.Close()
	for _, render := range []string{"query", "lod"} {
		if err := run([]string{"-server", srv.URL, "-digest", "d", "-render", render}, io.Discard); err != nil {
			t.Fatalf("-render %s: %v", render, err)
		}
	}
	want := map[string]string{"/v1/traces/d/query": `{"select":"structure"}`, "/v1/traces/d/lod": `{}`}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(bodies, want) {
		t.Errorf("posted bodies %v, want %v", bodies, want)
	}
}

// uploaded is one zoo trace written to a file and uploaded to an in-process
// charmd.
type uploaded struct{ url, digest, file string }

// charmd starts an in-process charmd and uploads the named zoo workload's
// trace to it.
func charmd(t *testing.T, workload string) uploaded {
	t.Helper()
	var w conformance.Workload
	for _, z := range conformance.Zoo() {
		if z.Name == workload {
			w = z
		}
	}
	tr, err := w.Gen()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), workload+".trace")
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up struct{ Digest string }
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil || up.Digest == "" {
		t.Fatalf("upload: status %d, %v", resp.StatusCode, err)
	}
	return uploaded{ts.URL, up.Digest, file}
}

func chquery(t *testing.T, args ...string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := run(args, &b); err != nil {
		t.Fatalf("chquery %s: %v", strings.Join(args, " "), err)
	}
	return b.Bytes()
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return b
}

// TestAllEqualsOnePage: -all over small pages prints what one unpaged query
// prints, byte for byte.
func TestAllEqualsOnePage(t *testing.T) {
	u := charmd(t, "jacobi")
	for _, sel := range []string{"structure", "steps", "metrics", "viz"} {
		whole := chquery(t, "-server", u.url, "-digest", u.digest, "-spec", `{"select":"`+sel+`"}`)
		paged := chquery(t, "-server", u.url, "-digest", u.digest, "-render", "query", "-spec", `{"select":"`+sel+`","limit":7}`, "-all")
		if !bytes.Equal(paged, whole) {
			t.Errorf("select=%s: -all over 7-row pages differs from one page:\n%s\nwant:\n%s", sel, paged, whole)
		}
		var p page
		if err := json.Unmarshal(whole, &p); err != nil || len(p.Rows) != p.TotalRows || p.TotalRows == 0 {
			t.Errorf("select=%s: %d of %d rows, %v", sel, len(p.Rows), p.TotalRows, err)
		}
	}
}

// TestRenderLod: -render lod prints charmd's /lod body, the same bytes as
// the equivalent GET.
func TestRenderLod(t *testing.T) {
	u := charmd(t, "jacobi")
	for spec, params := range map[string]string{
		``:                                      ``,
		`{"resolution":8}`:                      `?resolution=8`,
		`{"resolution":"native","render":true}`: `?resolution=native&render=true`,
		`{"steps":{"from":2,"to":9},"max_rows":3}`:        `?steps=2..9&max_rows=3`,
		`{"resolution":4,"max_edges":2,"no_edges":false}`: `?resolution=4&max_edges=2`,
	} {
		got := chquery(t, "-server", u.url, "-digest", u.digest, "-render", "lod", "-spec", spec)
		if want := get(t, u.url+"/v1/traces/"+u.digest+"/lod"+params); !bytes.Equal(got, want) {
			t.Errorf("-spec %q: chquery printed\n%s\nwant GET %s:\n%s", spec, got, params, want)
		}
	}
}

// TestMessagePassing: -mp asks for the message-passing preset, on both
// renders.
func TestMessagePassing(t *testing.T) {
	u := charmd(t, "mergetree")
	want := core.MessagePassingOptions().Fingerprint()
	for _, render := range []string{"query", "lod"} {
		var out struct{ Fingerprint string }
		if err := json.Unmarshal(chquery(t, "-server", u.url, "-digest", u.digest, "-mp", "-render", render), &out); err != nil {
			t.Fatal(err)
		}
		if out.Fingerprint != want {
			t.Errorf("-mp -render %s: fingerprint %q, want %q", render, out.Fingerprint, want)
		}
	}
}

// TestAgreesWithStructure: chquery against charmd and structure over the
// uploaded file print the same fingerprint and result fields for the same
// -render and -spec (chquery adds the digest).
func TestAgreesWithStructure(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain to build cmd/structure")
	}
	structure := filepath.Join(t.TempDir(), "structure")
	if out, err := exec.Command(gobin, "build", "-o", structure, "charmtrace/cmd/structure").CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/structure: %v\n%s", err, out)
	}
	cases := []struct{ workload, render, spec string }{
		{"lulesh-charm", "query", `{"select":"structure"}`},
		{"lulesh-charm", "query", `{"select":"steps","filter":{"chares":[1,3],"steps":{"from":2,"to":9}},"fields":["chare","step"]}`},
		{"lulesh-charm", "query", `{"select":"metrics","group_by":"chare","aggregates":["count","sum"]}`},
		{"lulesh-charm", "query", `{"select":"viz","limit":4}`},
		{"lulesh-charm", "lod", `{"resolution":8}`},
		{"lulesh-charm", "lod", `{"resolution":"native","render":true,"max_rows":3}`},
		{"mergetree", "query", `{"select":"steps","limit":5}`},
		{"mergetree", "lod", `{"resolution":16,"max_edges":4}`},
	}
	servers := map[string]uploaded{}
	for _, c := range cases {
		u, ok := servers[c.workload]
		if !ok {
			u = charmd(t, c.workload)
			servers[c.workload] = u
		}
		args := []string{"-render", c.render, "-spec", c.spec}
		if c.workload == "mergetree" {
			args = append(args, "-mp")
		}
		var remote map[string]any
		if err := json.Unmarshal(chquery(t, append([]string{"-server", u.url, "-digest", u.digest}, args...)...), &remote); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(structure, append([]string{"-in", u.file}, args...)...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("structure %s: %v", strings.Join(cmd.Args[1:], " "), err)
		}
		var local map[string]any
		if err := json.Unmarshal(out, &local); err != nil {
			t.Fatal(err)
		}
		if remote["digest"] != u.digest {
			t.Errorf("%s %s: digest %v, want %s", c.workload, c.spec, remote["digest"], u.digest)
		}
		delete(remote, "digest")
		if local["fingerprint"] == nil || !reflect.DeepEqual(remote, local) {
			t.Errorf("%s -render %s -spec %s: chquery and structure differ:\n%v\n%v", c.workload, c.render, c.spec, remote, local)
		}
	}
}
