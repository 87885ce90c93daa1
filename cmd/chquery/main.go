// Command chquery runs structure queries — indexed slicing, aggregation
// and paging over a trace's recovered logical structure — against a local
// trace file, a generated workload, or a remote charmd server.
//
// Usage:
//
//	chquery -app jacobi -select steps -chares 1,3 -steps 9..40
//	chquery -in run.trace -select metrics -group-by chare -aggs count,sum
//	chquery -app lulesh -select viz -steps 0..60
//	chquery -server http://localhost:8080 -digest <digest> -select structure
//	chquery -app jacobi -spec '{"select":"steps","limit":10}'
//
// The filter flags mirror the charmd GET parameters; -spec takes a raw
// JSON query spec instead (prefix @ to read it from a file). -limit pages
// the result; -all follows cursors until the result is exhausted.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/lod"
	"charmtrace/internal/query"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chquery:", err)
		os.Exit(1)
	}
}

// page is the wire/output shape: a superset of the charmd query response.
// Rows are kept as the bytes each was rendered to, local or remote, so -all
// can concatenate pages without re-reading a number.
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
	input := cli.NewInput(flag.CommandLine)
	server := flag.String("server", "", "query a remote charmd at this base URL (requires -digest)")
	digest := flag.String("digest", "", "trace digest on the remote server")
	flag.BoolVar(&input.MP, "mp", false, "message-passing analysis options (remote: preset=mp)")
	parallelism := flag.Int("parallelism", 0, "extraction worker count for local mode (0 = all cores; output is identical)")

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
	retries := flag.Int("retries", 3, "remote mode: extra attempts after a 429 or 503 (Retry-After honored, exponential backoff otherwise)")
	lodMode := flag.Bool("lod", false, "level-of-detail aggregation instead of a query (uses -resolution, -steps, -max-rows, -max-edges, -render)")
	resolution := flag.String("resolution", "", "-lod: bucket budget, a positive integer or \"native\" (default native)")
	maxRows := flag.Int("max-rows", 0, "-lod: cap cluster rows; past it the smallest clusters merge into one overflow row")
	maxEdges := flag.Int("max-edges", 0, "-lod: cap aggregated communication edges, keeping the heaviest")
	render := flag.Bool("render", false, "-lod: include the clustered text render (native resolution only)")
	flag.Parse()

	cfg := fetcherConfig{
		input: input, server: *server, digest: *digest,
		parallelism: *parallelism, retries: *retries,
	}

	if *lodMode {
		return runLod(cfg, *resolution, *steps, *maxRows, *maxEdges, *render)
	}

	spec, err := buildSpec(*rawSpec, *sel, *phases, *chares, *steps, *groupBy, *aggs, *fields, *limit, *cursor)
	if err != nil {
		return err
	}
	if *all && spec.Limit == 0 {
		// -all needs pages to follow; pick a transport-friendly page size.
		spec.Limit = 1000
	}

	fetch, err := newFetcher(cfg)
	if err != nil {
		return err
	}

	out, err := fetch(spec)
	if err != nil {
		return err
	}
	for *all && out.NextCursor != "" {
		spec.Cursor = out.NextCursor
		next, err := fetch(spec)
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
		if path, ok := strings.CutPrefix(raw, "@"); ok {
			data, err := os.ReadFile(path)
			if err != nil {
				return query.Spec{}, err
			}
			raw = string(data)
		}
		return query.ParseSpec(strings.NewReader(raw))
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
	spec, used, err := query.SpecFromParams(sel, v)
	if err != nil {
		return query.Spec{}, err
	}
	if !used {
		spec = query.Spec{Select: sel}
		if err := spec.Validate(); err != nil {
			return query.Spec{}, err
		}
	}
	return spec, nil
}

type fetcherConfig struct {
	input          *cli.Input
	server, digest string
	parallelism    int
	retries        int
}

// remoteTarget is the URL of one of the digest's analysis endpoints on the
// remote charmd.
func (cfg fetcherConfig) remoteTarget(endpoint string) (string, error) {
	if cfg.digest == "" {
		return "", fmt.Errorf("-server requires -digest")
	}
	target := strings.TrimSuffix(cfg.server, "/") + "/v1/traces/" + cfg.digest + "/" + endpoint
	if cfg.input.MP {
		target += "?preset=mp"
	}
	return target, nil
}

// newFetcher resolves the query target into a page-fetching function:
// either one POST per page against a remote charmd, or an in-process
// engine over a locally extracted (and indexed, once) structure.
func newFetcher(cfg fetcherConfig) (func(query.Spec) (*page, error), error) {
	if cfg.server != "" {
		target, err := cfg.remoteTarget("query")
		if err != nil {
			return nil, err
		}
		rt := newRetrier(cfg.retries)
		return func(spec query.Spec) (*page, error) { return postPage(target, spec, rt) }, nil
	}

	s, opt, err := loadLocal(cfg)
	if err != nil {
		return nil, err
	}
	idx := query.BuildIndex(s)
	fp := opt.Fingerprint()
	return func(spec query.Spec) (*page, error) {
		res, err := query.Run(context.Background(), idx, spec)
		if err != nil {
			return nil, err
		}
		rendered, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		p := &page{Fingerprint: fp}
		return p, json.Unmarshal(rendered, p)
	}, nil
}

// loadLocal resolves -in/-app into an extracted structure — the shared
// local-mode front of the query and LOD paths.
func loadLocal(cfg fetcherConfig) (*core.Structure, core.Options, error) {
	if cfg.input.In == "" && cfg.input.App == "" {
		return nil, core.Options{}, fmt.Errorf("need -in <file>, -app <workload> or -server <url>; workloads:\n%s", cli.Describe())
	}
	tr, opt, err := cfg.input.Load()
	if err != nil {
		return nil, opt, err
	}
	opt.Parallelism = cfg.parallelism
	ctx, stopSignals := cli.SignalContext(context.Background())
	opt.Context = ctx
	s, err := core.Extract(tr, opt)
	stopSignals()
	if err != nil {
		return nil, opt, err
	}
	return s, opt, nil
}

// runLod executes one level-of-detail request: remotely via
// POST /v1/traces/{digest}/lod, or locally by building the pyramid over a
// freshly extracted structure. Either way the response JSON goes to stdout.
func runLod(cfg fetcherConfig, resolution, steps string, maxRows, maxEdges int, render bool) error {
	sp := lod.Spec{MaxRows: maxRows, MaxEdges: maxEdges, Render: render}
	var err error
	if sp.Resolution, err = lod.ParseResolution(resolution); err != nil {
		return err
	}
	if steps != "" {
		v := url.Values{}
		v.Set("steps", steps)
		parsed, err := lod.SpecFromParams(v)
		if err != nil {
			return err
		}
		sp.Steps = parsed.Steps
	}
	if err := sp.Validate(); err != nil {
		return err
	}

	if cfg.server != "" {
		target, err := cfg.remoteTarget("lod")
		if err != nil {
			return err
		}
		data, err := post(target, sp, newRetrier(cfg.retries))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}

	s, opt, err := loadLocal(cfg)
	if err != nil {
		return err
	}
	res, err := lod.Build(s, nil).Query(sp, nil)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Fingerprint string `json:"fingerprint"`
		*lod.Result
	}{Fingerprint: opt.Fingerprint(), Result: res})
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
