package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/query"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// This file is the renderer the row routes had until they began streaming
// from columns: response structs, filled row by row, handed to encoding/json
// (writeJSON: reflection, then a second pass to indent). It survives as the
// oracle TestRowRoutesMatchReflectionRenderer holds the streaming handlers
// to, and as the types older tests still decode into.

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

type structureResponse struct {
	Digest      string      `json:"digest"`
	Fingerprint string      `json:"fingerprint"`
	Events      int         `json:"events"`
	NumPhases   int         `json:"num_phases"`
	MaxStep     int32       `json:"max_step"`
	DAGEdges    int         `json:"dag_edges"`
	Phases      []phaseJSON `json:"phases"`
}

type stepJSON struct {
	Event     int32  `json:"event"`
	Kind      string `json:"kind"`
	Step      int32  `json:"step"`
	Phase     int32  `json:"phase"`
	LocalStep int32  `json:"local_step"`
}

type chareTimeline struct {
	Chare    int32      `json:"chare"`
	Name     string     `json:"name"`
	Timeline []stepJSON `json:"timeline"`
}

type chareMetrics struct {
	Chare                int32  `json:"chare"`
	Name                 string `json:"name"`
	Events               int    `json:"events"`
	IdleExperienced      int64  `json:"idle_experienced"`
	DifferentialDuration int64  `json:"differential_duration"`
	Imbalance            int64  `json:"imbalance"`
}

func refBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

// refStructureBody renders /structure from a resident structure.
func refStructureBody(digest, fp string, st *core.Structure) []byte {
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
	return refBody(resp)
}

// refStepsBody renders /steps (only < 0) or /steps?chare=only.
func refStepsBody(digest, fp string, st *core.Structure, only int) []byte {
	tab := st.Table()
	resp := struct {
		Digest      string          `json:"digest"`
		Fingerprint string          `json:"fingerprint"`
		MaxStep     int32           `json:"max_step"`
		Chares      []chareTimeline `json:"chares"`
	}{Digest: digest, Fingerprint: fp, MaxStep: st.MaxStep()}
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
	return refBody(resp)
}

// refQueryBody renders one query page the way the embedded *query.Result
// with map rows did. The rows are recovered from the page as maps (numbers
// kept as the literals they were rendered to), so key order, indentation
// and every string's escaping are encoding/json's own work again.
func refQueryBody(t *testing.T, digest, fp string, res *query.Result) []byte {
	t.Helper()
	compact, err := json.Marshal(res.Rows)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(compact))
	dec.UseNumber()
	rows := []map[string]any{}
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return refBody(struct {
		Digest      string           `json:"digest"`
		Fingerprint string           `json:"fingerprint"`
		Select      string           `json:"select"`
		TotalRows   int              `json:"total_rows"`
		Window      *query.StepRange `json:"window,omitempty"`
		Rows        []map[string]any `json:"rows"`
		NextCursor  string           `json:"next_cursor,omitempty"`
	}{digest, fp, res.Select, res.TotalRows, res.Window, rows, res.NextCursor})
}

// TestRowRoutesMatchReflectionRenderer is the zoo-wide differential: on all
// nine conformance workloads, every row route — /structure, /steps,
// /metrics in full, ?chare=, and each retrofitted GET beside the POST
// /query that says the same thing, every page of it — answers with exactly
// the bytes the reflection renderer gives for a structure extracted here,
// and /structure again from the disk summary after a restart.
func TestRowRoutesMatchReflectionRenderer(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	structureBodies := map[string][]byte{} // path → reference, re-checked after the restart
	// The zoo, and a trace of nothing: no chares, events or phases, where
	// encoding/json wrote null for the slices nobody had appended to.
	empty := conformance.Workload{Name: "empty", Opts: core.DefaultOptions(),
		Gen: func() (*trace.Trace, error) { return trace.NewBuilder(1).Finish() }}
	for _, w := range append(conformance.Zoo(), empty) {
		t.Run(w.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tracefile.WriteBinary(&buf, w.MustGen()); err != nil {
				t.Fatal(err)
			}
			digest := tracefile.DigestBytes(buf.Bytes())
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces", &buf))
			if rec.Code != http.StatusCreated {
				t.Fatalf("upload: %d %s", rec.Code, rec.Body)
			}
			st, err := core.Extract(w.MustGen(), w.Opts)
			if err != nil {
				t.Fatal(err)
			}
			idx := query.BuildIndex(st)
			fp := w.Opts.Fingerprint()
			preset := ""
			if w.Opts.ProcessOrderDeps {
				preset = "preset=mp"
			}
			base := "/v1/traces/" + digest
			serve := func(method, path, params, body string) []byte {
				t.Helper()
				if p := strings.Trim(params+"&"+preset, "&"); p != "" {
					path += "?" + p
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(method, base+path, strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s %s: status %d: %s", method, path, body, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			check := func(what string, got, want []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Errorf("%s: differs from the reflection renderer at byte %d\n got %.300s\nwant %.300s",
						what, firstDiff(got, want), got, want)
				}
			}

			want := refStructureBody(digest, fp, st)
			check("/structure", serve("GET", "/structure", "", ""), want)
			structureBodies[base+"/structure?"+preset] = want
			check("/steps", serve("GET", "/steps", "", ""), refStepsBody(digest, fp, st, -1))
			check("/metrics", serve("GET", "/metrics", "", ""), directMetricsBody(digest, fp, st))
			if st.Table().NumChares() == 0 {
				return
			}
			for _, c := range []int{0, st.Table().NumChares() - 1} {
				check(fmt.Sprintf("/steps?chare=%d", c), serve("GET", "/steps", fmt.Sprintf("chare=%d", c), ""), refStepsBody(digest, fp, st, c))
			}

			maxStep, last := st.MaxStep(), st.Table().NumChares()-1
			for _, q := range []struct{ route, params, spec string }{
				{"/structure", "phase=0", `{"select":"structure","filter":{"phases":[0]}}`},
				{"/structure", fmt.Sprintf("steps=0..%d&limit=2&fields=id,events,runtime", maxStep/2),
					fmt.Sprintf(`{"select":"structure","filter":{"steps":{"from":0,"to":%d}},"fields":["id","events","runtime"],"limit":2}`, maxStep/2)},
				{"/steps", fmt.Sprintf("steps=%d..%d", maxStep/4, maxStep/2),
					fmt.Sprintf(`{"select":"steps","filter":{"steps":{"from":%d,"to":%d}}}`, maxStep/4, maxStep/2)},
				{"/steps", fmt.Sprintf("chares=%d,0&phase=0&limit=7", last),
					fmt.Sprintf(`{"select":"steps","filter":{"phases":[0],"chares":[%d,0]},"limit":7}`, last)},
				{"/steps", fmt.Sprintf("steps=%d..%d", maxStep+5, maxStep+9),
					fmt.Sprintf(`{"select":"steps","filter":{"steps":{"from":%d,"to":%d}}}`, maxStep+5, maxStep+9)},
				{"/metrics", "steps=0..3&fields=event,sub_dur,imbalance&limit=50",
					`{"select":"metrics","filter":{"steps":{"from":0,"to":3}},"fields":["event","sub_dur","imbalance"],"limit":50}`},
				{"/metrics", "group_by=phase&aggs=sum,mean", `{"select":"metrics","group_by":"phase","aggregates":["sum","mean"]}`},
				{"/metrics", fmt.Sprintf("group_by=chare&chares=0,%d&limit=1", last),
					fmt.Sprintf(`{"select":"metrics","filter":{"chares":[0,%d]},"group_by":"chare","limit":1}`, last)},
				{"", "", `{"select":"viz"}`},
				{"", "", fmt.Sprintf(`{"select":"viz","filter":{"steps":{"from":0,"to":%d}},"fields":["label","timeline"],"limit":3}`, maxStep/3)},
			} {
				spec, err := query.ParseSpec(strings.NewReader(q.spec))
				if err != nil {
					t.Fatalf("%s: %v", q.spec, err)
				}
				params := q.params
				for page := 0; ; page++ {
					res, err := query.Run(context.Background(), idx, spec)
					if err != nil {
						t.Fatalf("%+v: %v", spec, err)
					}
					want := refQueryBody(t, digest, fp, res)
					posted, _ := json.Marshal(spec)
					check(fmt.Sprintf("POST /query %s page %d", q.spec, page), serve("POST", "/query", "", string(posted)), want)
					if q.route != "" {
						check(fmt.Sprintf("GET %s?%s page %d", q.route, params, page), serve("GET", q.route, params, ""), want)
					}
					if res.NextCursor == "" {
						break
					}
					spec.Cursor = res.NextCursor
					params = q.params + "&page=" + url.QueryEscape(res.NextCursor)
				}
			}
		})
	}

	// Results are on disk; a new server over the same directory answers
	// /structure from the summary tier. Same function, same bytes.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range structureBodies {
		rec := httptest.NewRecorder()
		srv2.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Header().Get("X-Charmd-Cache") != "disk" || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s after restart: cache %q, status %d, body differs from the reflection renderer: %v",
				path, rec.Header().Get("X-Charmd-Cache"), rec.Code, !bytes.Equal(rec.Body.Bytes(), want))
		}
	}
}
