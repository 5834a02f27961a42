package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/correlate"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/query"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
	"whatsupersay/internal/tag"
)

// pipelineOut is what serve's ingest handler computes for one batch
// before appending: the same stages, in the same order.
type pipelineOut struct {
	lines, parseErrors int
	alerts, kept       int
	entries            []store.Entry
}

// runPipeline is the in-process reference for POST /api/ingest.
func runPipeline(sys logrec.System, batch []byte) (pipelineOut, error) {
	m, err := cluster.New(sys)
	if err != nil {
		return pipelineOut{}, err
	}
	recs, st, err := ingest.ReadAll(bytes.NewReader(batch), sys, m.LogStart)
	if err != nil {
		return pipelineOut{}, err
	}
	alerts := tag.NewTagger(sys).TagAll(recs)
	tag.SortAlerts(alerts)
	kept := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	return pipelineOut{
		lines: st.Lines, parseErrors: st.ParseErrors,
		alerts: len(alerts), kept: len(kept),
		entries: store.FromAlerts(alerts, kept),
	}, nil
}

// checkIngestReplies compares every acknowledged ingest reply with the
// in-process pipeline over the same batch, marking mismatches wrong.
func checkIngestReplies(sys logrec.System, p *plan, samples []sample) error {
	refs := map[int]pipelineOut{}
	for i := range samples {
		s := &samples[i]
		if s.class != classIngest || !s.ok() {
			continue
		}
		ref, seen := refs[s.item]
		if !seen {
			var err error
			if ref, err = runPipeline(sys, p.batches[s.item]); err != nil {
				return err
			}
			ref.entries = nil
			refs[s.item] = ref
		}
		got := s.ingest
		if got.Lines != ref.lines || got.ParseErrors != ref.parseErrors || got.Alerts != ref.alerts || got.Kept != ref.kept {
			s.err = fmt.Sprintf("ingest batch %d: got lines=%d parse_errors=%d alerts=%d kept=%d, want %d/%d/%d/%d",
				s.item, got.Lines, got.ParseErrors, got.Alerts, got.Kept, ref.lines, ref.parseErrors, ref.alerts, ref.kept)
		}
	}
	return nil
}

// entryJSON mirrors the wire form of one /api/query entry.
type entryJSON struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Source   string    `json:"source"`
	Category string    `json:"category"`
	Severity string    `json:"severity"`
	Program  string    `json:"program,omitempty"`
	Body     string    `json:"body,omitempty"`
	Kept     bool      `json:"kept"`
}

func toEntryJSON(en store.Entry) entryJSON {
	return entryJSON{
		Seq: en.Record.Seq, Time: en.Record.Time, Source: en.Record.Source,
		Category: en.Category, Severity: en.Record.Severity.String(),
		Program: en.Record.Program, Body: en.Record.Body, Kept: en.Kept,
	}
}

// request is a read URL decoded the way serve decodes it, for the
// parameters the plan uses.
type request struct {
	class string
	f     store.Filter
	limit int
	opts  query.AggregateOptions
}

func parseRequest(it readItem) (request, error) {
	r := request{class: it.class, limit: 100}
	u, err := url.Parse(it.url)
	if err != nil {
		return r, err
	}
	q := u.Query()
	for _, k := range []string{"from", "to"} {
		if v := q.Get(k); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				return r, err
			}
			if k == "from" {
				r.f.From = t
			} else {
				r.f.To = t
			}
		}
	}
	if v := q.Get("source"); v != "" {
		r.f.Sources = strings.Split(v, ",")
	}
	if v := q.Get("category"); v != "" {
		r.f.Categories = strings.Split(v, ",")
	}
	if v := q.Get("kept"); v != "" {
		kept, err := strconv.ParseBool(v)
		if err != nil {
			return r, err
		}
		r.f.Kept = &kept
	}
	r.f.BodyContains = q.Get("body")
	if v := q.Get("limit"); v != "" {
		if r.limit, err = strconv.Atoi(v); err != nil {
			return r, err
		}
	}
	if v := q.Get("topk"); v != "" {
		if r.opts.TopK, err = strconv.Atoi(v); err != nil {
			return r, err
		}
	}
	if v := q.Get("quantiles"); v != "" {
		for _, part := range strings.Split(v, ",") {
			x, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return r, err
			}
			r.opts.Quantiles = append(r.opts.Quantiles, x)
		}
	}
	return r, nil
}

// answerer computes reference answers over a reopened store.
type answerer interface {
	selectEntries(ctx context.Context, f store.Filter, limit int) ([]store.Entry, error)
	aggregate(ctx context.Context, f store.Filter, opts query.AggregateOptions) (query.Aggregation, error)
	total() int
	close() error
}

type engineAnswerer struct {
	st  *store.Store
	eng *query.Engine
}

func (a engineAnswerer) selectEntries(ctx context.Context, f store.Filter, limit int) ([]store.Entry, error) {
	en, _, err := a.eng.SelectContext(ctx, f, limit)
	return en, err
}

func (a engineAnswerer) aggregate(ctx context.Context, f store.Filter, opts query.AggregateOptions) (query.Aggregation, error) {
	agg, _, err := a.eng.AggregateContext(ctx, f, opts)
	return agg, err
}

func (a engineAnswerer) total() int   { return a.st.Len() }
func (a engineAnswerer) close() error { return a.st.Close() }

type clusterAnswerer struct{ c *shard.Cluster }

func (a clusterAnswerer) selectEntries(ctx context.Context, f store.Filter, limit int) ([]store.Entry, error) {
	en, cov, _, err := a.c.Select(ctx, f, limit)
	if err == nil && cov.Partial {
		err = fmt.Errorf("reference select: partial coverage %v", cov.ShardErrors)
	}
	return en, err
}

func (a clusterAnswerer) aggregate(ctx context.Context, f store.Filter, opts query.AggregateOptions) (query.Aggregation, error) {
	agg, cov, _, err := a.c.Aggregate(ctx, f, opts)
	if err == nil && cov.Partial {
		err = fmt.Errorf("reference aggregate: partial coverage %v", cov.ShardErrors)
	}
	return agg, err
}

func (a clusterAnswerer) total() int   { return a.c.Len() }
func (a clusterAnswerer) close() error { return a.c.Close() }

// serveCorrelate is the correlation config serve runs with by default.
func serveCorrelate() correlate.Config {
	mode, _ := correlate.ParseNodeMode("category")
	return correlate.Config{Window: correlate.DefaultWindow, NodeMode: mode}
}

// reopen opens a store directory serve has shut down.
func reopen(dir string, shards int) (answerer, error) {
	if shards > 0 {
		c, _, err := shard.Open(dir, shard.Options{Correlate: serveCorrelate()})
		if err != nil {
			return nil, err
		}
		return clusterAnswerer{c}, nil
	}
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return engineAnswerer{st: st, eng: &query.Engine{Store: st}}, nil
}

// verified is one read fetched over HTTP after the load phases, while
// nothing mutates the store.
type verified struct {
	item readItem
	body []byte
}

// compareAnswer checks one served answer byte-for-byte against the
// reference: the entries array of a query, the aggregate object of an
// aggregate.
func compareAnswer(ctx context.Context, ref answerer, v verified) error {
	req, err := parseRequest(v.item)
	if err != nil {
		return err
	}
	var got struct {
		Count     int             `json:"count"`
		Entries   json.RawMessage `json:"entries"`
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(v.body, &got); err != nil {
		return err
	}
	var want []byte
	var gotField json.RawMessage
	switch req.class {
	case classQuery:
		en, err := ref.selectEntries(ctx, req.f, req.limit)
		if err != nil {
			return err
		}
		out := make([]entryJSON, 0, len(en))
		for _, e := range en {
			out = append(out, toEntryJSON(e))
		}
		want, gotField = mustJSON(out), got.Entries
	case classAggregate:
		agg, err := ref.aggregate(ctx, req.f, req.opts)
		if err != nil {
			return err
		}
		want, gotField = mustJSON(agg), got.Aggregate
	default:
		return nil
	}
	if !bytes.Equal(want, gotField) {
		i := 0
		for i < len(want) && i < len(gotField) && want[i] == gotField[i] {
			i++
		}
		lo := max(0, i-40)
		return fmt.Errorf("%s: served answer differs from the in-process reference at byte %d: served %q, reference %q",
			v.item.url, i, gotField[lo:min(len(gotField), i+60)], want[lo:min(len(want), i+60)])
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the reference types always marshal
	}
	return b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
