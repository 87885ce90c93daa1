// Command chquery is the charmd client: it runs structure queries —
// indexed slicing, aggregation and paging over a trace's recovered logical
// structure — and level-of-detail requests against a remote charmd (or a
// charm-gateway in front of several). The same specs run locally, over a
// trace file or a generated workload, as `structure -render query|lod`.
//
// Usage:
//
//	chquery -server http://localhost:8080 -digest <digest> -select structure
//	chquery -server <url> -digest <digest> -select steps -chares 1,3 -steps 9..40
//	chquery -server <url> -digest <digest> -select metrics -group-by chare -aggs count,sum
//	chquery -server <url> -digest <digest> -spec '{"select":"steps","limit":10}'
//	chquery -server <url> -digest <digest> -lod -resolution 64
//
// The filter flags mirror the charmd GET parameters; -spec takes a raw
// JSON query spec instead (prefix @ to read it from a file). -limit pages
// the result; -all follows cursors until the result is exhausted.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"

	"charmtrace/internal/cli"
	"charmtrace/internal/lod"
	"charmtrace/internal/query"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chquery:", err)
		os.Exit(1)
	}
}

// page is the wire/output shape of one charmd query response. Rows are kept
// as the bytes the server rendered, so -all can concatenate pages without
// re-reading a number.
type page struct {
	Digest      string            `json:"digest,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Select      string            `json:"select"`
	TotalRows   int               `json:"total_rows"`
	Window      *query.StepRange  `json:"window,omitempty"`
	Rows        []json.RawMessage `json:"rows"`
	NextCursor  string            `json:"next_cursor,omitempty"`
}

func run() error {
	server := flag.String("server", "", "base URL of the charmd (or charm-gateway) to query; requires -digest")
	digest := flag.String("digest", "", "trace digest on the server")
	mp := flag.Bool("mp", false, "message-passing analysis options (preset=mp)")

	sel := flag.String("select", "structure", "row kind: structure | steps | metrics | viz")
	phases := flag.String("phases", "", "filter: comma-separated phase ids")
	chares := flag.String("chares", "", "filter: comma-separated chare ids")
	steps := flag.String("steps", "", "filter: global step window from..to (or a single step)")
	groupBy := flag.String("group-by", "", "aggregate select=metrics rows by phase or chare")
	aggs := flag.String("aggs", "", "aggregates for -group-by: comma-separated count,sum,mean,max")
	fields := flag.String("fields", "", "project rows to these comma-separated columns")
	limit := flag.Int("limit", 0, "rows per page (0 = everything)")
	cursor := flag.String("cursor", "", "resume after this page cursor")
	all := flag.Bool("all", false, "follow cursors and print the concatenated result")
	rawSpec := flag.String("spec", "", "raw JSON query spec (@file to read from a file); overrides the filter flags")
	retries := flag.Int("retries", 3, "extra attempts after a 429 or 503 (Retry-After honored, exponential backoff otherwise)")
	lodMode := flag.Bool("lod", false, "level-of-detail aggregation instead of a query (uses -resolution, -steps, -max-rows, -max-edges, -render)")
	resolution := flag.String("resolution", "", "-lod: bucket budget, a positive integer or \"native\" (default native)")
	maxRows := flag.Int("max-rows", 0, "-lod: cap cluster rows; past it the smallest clusters merge into one overflow row")
	maxEdges := flag.Int("max-edges", 0, "-lod: cap aggregated communication edges, keeping the heaviest")
	render := flag.Bool("render", false, "-lod: include the clustered text render (native resolution only)")
	flag.Parse()

	switch {
	case *server == "":
		return errors.New("-server is required: chquery only talks to charmd; for a trace file or workload run structure -render query|lod -spec <json|@file>")
	case *digest == "":
		return errors.New("-server requires -digest")
	}
	// target is the URL of one of the digest's analysis endpoints.
	target := func(endpoint string) string {
		t := strings.TrimSuffix(*server, "/") + "/v1/traces/" + *digest + "/" + endpoint
		if *mp {
			t += "?preset=mp"
		}
		return t
	}
	rt := newRetrier(*retries)

	if *lodMode {
		// The -lod flags go through the GET parameter grammar of charmd's /lod.
		sp, err := lod.SpecFromParams(url.Values{
			"resolution": {*resolution}, "steps": {*steps}, "render": {strconv.FormatBool(*render)},
			"max_rows": {strconv.Itoa(*maxRows)}, "max_edges": {strconv.Itoa(*maxEdges)},
		})
		if err != nil {
			return err
		}
		data, err := post(target("lod"), sp, rt)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}

	spec, err := buildSpec(*rawSpec, *sel, *phases, *chares, *steps, *groupBy, *aggs, *fields, *limit, *cursor)
	if err != nil {
		return err
	}
	if *all && spec.Limit == 0 {
		// -all needs pages to follow; pick a transport-friendly page size.
		spec.Limit = 1000
	}

	out, err := postPage(target("query"), spec, rt)
	if err != nil {
		return err
	}
	for *all && out.NextCursor != "" {
		spec.Cursor = out.NextCursor
		next, err := postPage(target("query"), spec, rt)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, next.Rows...)
		out.NextCursor = next.NextCursor
	}
	if *all {
		out.NextCursor = ""
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// buildSpec assembles the query spec from the raw -spec JSON or the
// individual filter flags (which reuse the charmd GET parameter grammar).
func buildSpec(raw, sel, phases, chares, steps, groupBy, aggs, fields string, limit int, cursor string) (query.Spec, error) {
	if raw != "" {
		r, err := cli.SpecArg(raw)
		if err != nil {
			return query.Spec{}, err
		}
		return query.ParseSpec(r)
	}
	v := url.Values{}
	set := func(k, val string) {
		if val != "" {
			v.Set(k, val)
		}
	}
	set("phase", phases)
	set("chares", chares)
	set("steps", steps)
	set("group_by", groupBy)
	set("aggs", aggs)
	set("fields", fields)
	set("page", cursor)
	if limit > 0 {
		v.Set("limit", fmt.Sprint(limit))
	}
	// With no filter flag the spec is {select} alone, which SpecFromParams
	// leaves unchecked.
	spec, _, err := query.SpecFromParams(sel, v)
	if err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

// postPage fetches one page from a charmd query endpoint.
func postPage(target string, spec query.Spec, rt *retrier) (*page, error) {
	data, err := post(target, spec, rt)
	if err != nil {
		return nil, err
	}
	var p page
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// post sends one JSON spec to a charmd analysis endpoint, retrying
// transient pressure (429/503) per the retrier's policy, and returns the 200
// body; any other status becomes the server's decoded error.
func post(target string, spec any, rt *retrier) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := rt.do(func() (*http.Response, error) {
		return http.Post(target, "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return data, nil
	}
	var e struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		if e.Field != "" {
			return nil, fmt.Errorf("server: %s (field %s)", e.Error, e.Field)
		}
		return nil, fmt.Errorf("server: %s", e.Error)
	}
	return nil, fmt.Errorf("server: status %d: %s", resp.StatusCode, data)
}
