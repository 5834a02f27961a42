package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/correlate"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/query"
	"whatsupersay/internal/shard"
	"whatsupersay/internal/store"
	"whatsupersay/internal/tag"
)

// tracedStore wraps one store so the calls the query engine and the
// shard router make into it record spans. Spans are recorded only
// inside a replayed request, so background baseline scans stay out.
type tracedStore struct {
	*store.Store
	tr *tracer
	// appendSpan is the open store.append span, the parent of the
	// observer spans its notifications produce.
	appendSpan atomic.Int64
}

func (s *tracedStore) inRequest() bool { return s.tr.cur.Load() != 0 }

func (s *tracedStore) Append(entries ...store.Entry) error {
	if !s.inRequest() {
		return s.Store.Append(entries...)
	}
	a := s.tr.child("store.append")
	s.appendSpan.Store(a.id())
	before := s.Store.TailLen()
	err := s.Store.Append(entries...)
	tag := ""
	if s.Store.TailLen() < before+len(entries) {
		tag = "sealed"
	}
	s.appendSpan.Store(0)
	a.end(tag)
	return err
}

func (s *tracedStore) Scan(f store.Filter, fn func(store.Entry) error) (store.ScanStats, error) {
	if !s.inRequest() {
		return s.Store.Scan(f, fn)
	}
	a := s.tr.child("store.scan")
	st, err := s.Store.Scan(f, fn)
	a.end("")
	return st, err
}

func (s *tracedStore) ScanColumns(f store.Filter, v store.ColumnVisitor) (store.ScanStats, error) {
	if !s.inRequest() {
		return s.Store.ScanColumns(f, v)
	}
	a := s.tr.child("store.scan_columns")
	st, err := s.Store.ScanColumns(f, v)
	a.end("")
	return st, err
}

// SetObserver times the observer the shard router installs (its
// standing registry and correlation miner, fanned out in one call).
func (s *tracedStore) SetObserver(fn store.Observer) {
	if fn == nil {
		s.Store.SetObserver(nil)
		return
	}
	s.Store.SetObserver(func(mu store.Mutation) {
		parent := s.appendSpan.Load()
		if parent == 0 {
			fn(mu)
			return
		}
		a := s.tr.begin("store.observer", parent, s.tr.req.Load())
		fn(mu)
		a.end("")
	})
}

// target is the code under test in-process: one store with the push
// tier serve attaches to it, or one shard cluster.
type target interface {
	appendEntries(entries []store.Entry) (map[int]int, error)
	selectEntries(f store.Filter, limit int) error
	aggregate(f store.Filter, opts query.AggregateOptions) error
	predict()
	close() error
}

// single is one store with the standing registry, correlation miner and
// prediction service serve builds over it, observed by an observer the
// benchmark installs so each consumer's cost is timed on its own.
type single struct {
	tr    *tracer
	ts    *tracedStore
	eng   *query.Engine
	reg   *query.Registry
	miner *correlate.Miner
	live  *correlate.LiveService
}

func openSingle(tr *tracer, dir string) (*single, error) {
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	s := &single{tr: tr, ts: &tracedStore{Store: st, tr: tr}}
	s.eng = &query.Engine{Store: s.ts}
	s.eng.EnableCache(query.DefaultCacheSize)
	s.reg = query.NewRegistry(st)
	s.miner = correlate.NewMiner(st, serveCorrelate(), "")
	st.SetObserver(func(mu store.Mutation) {
		parent := s.ts.appendSpan.Load()
		if parent == 0 {
			s.reg.OnMutation(mu)
			s.miner.OnMutation(mu)
			return
		}
		req := tr.req.Load()
		a := tr.begin("query.standing_on_mutation", parent, req)
		s.reg.OnMutation(mu)
		a.end("")
		b := tr.begin("correlate.on_mutation", parent, req)
		s.miner.OnMutation(mu)
		b.end("")
	})
	if err := s.miner.Init(); err != nil {
		s.close()
		return nil, err
	}
	s.live = correlate.NewLiveService(s.miner, correlate.PredictOptions{})
	return s, nil
}

func (s *single) appendEntries(entries []store.Entry) (map[int]int, error) {
	return map[int]int{0: len(entries)}, s.ts.Append(entries...)
}

func (s *single) selectEntries(f store.Filter, limit int) error {
	a := s.tr.child("query.select")
	defer s.tr.enter(a)()
	_, _, err := s.eng.SelectContext(context.Background(), f, limit)
	a.end("")
	return err
}

func (s *single) aggregate(f store.Filter, opts query.AggregateOptions) error {
	a := s.tr.child("query.aggregate")
	defer s.tr.enter(a)()
	_, _, err := s.eng.AggregateContext(context.Background(), f, opts)
	a.end("")
	return err
}

func (s *single) predict() {
	a := s.tr.child("correlate.predict")
	s.live.Report()
	a.end("")
}

func (s *single) close() error {
	s.ts.Store.SetObserver(nil)
	s.miner.Close()
	s.reg.Close()
	return s.ts.Store.Close()
}

// sharded is one cluster whose shards are tracedStores.
type sharded struct {
	tr *tracer
	c  *shard.Cluster
}

func openSharded(tr *tracer, dir string) (*sharded, error) {
	c, _, err := shard.Open(dir, shard.Options{
		CacheSize: query.DefaultCacheSize,
		Correlate: serveCorrelate(),
		OpenStore: func(d string, o store.Options) (shard.Backend, *store.OpenReport, error) {
			st, rep, err := store.Open(d, o)
			if err != nil {
				return nil, nil, err
			}
			return &tracedStore{Store: st, tr: tr}, rep, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &sharded{tr: tr, c: c}, nil
}

func (s *sharded) appendEntries(entries []store.Entry) (map[int]int, error) {
	a := s.tr.child("shard.append")
	defer s.tr.enter(a)()
	rep, err := s.c.Append(entries)
	a.end("")
	if err == nil && (len(rep.Rejected) > 0 || len(rep.Errors) > 0) {
		err = fmt.Errorf("cluster append: rejected %v errors %v", rep.Rejected, rep.Errors)
	}
	return rep.PerShard, err
}

func (s *sharded) selectEntries(f store.Filter, limit int) error {
	a := s.tr.child("shard.select")
	defer s.tr.enter(a)()
	_, _, _, err := s.c.Select(context.Background(), f, limit)
	a.end("")
	return err
}

func (s *sharded) aggregate(f store.Filter, opts query.AggregateOptions) error {
	a := s.tr.child("shard.aggregate")
	defer s.tr.enter(a)()
	_, _, _, err := s.c.Aggregate(context.Background(), f, opts)
	a.end("")
	return err
}

func (s *sharded) predict() {
	a := s.tr.child("correlate.predict")
	s.c.PredictionReport(correlate.PredictOptions{})
	a.end("")
}

func (s *sharded) close() error { return s.c.Close() }

// replayOp is one request of the open-loop schedule, replayed
// in-process in due order.
type replayOp struct {
	class string
	item  int
}

// maxReplayOps bounds each open phase's replay.
const maxReplayOps = 300

// replayOps merges every open phase's connections into due order.
func replayOps(p *plan) []replayOp {
	var ops []replayOp
	for pi, ph := range p.w.phases {
		if !ph.open {
			continue
		}
		type due struct {
			at time.Duration
			op replayOp
		}
		var all []due
		for si, st := range ph.streams {
			for _, sl := range p.schedule[pi][si] {
				class := classIngest
				if st.kind == streamReads {
					class = p.reads[sl.item].class
				}
				all = append(all, due{sl.due, replayOp{class, sl.item}})
			}
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
		for _, d := range all[:min(len(all), maxReplayOps)] {
			ops = append(ops, d.op)
		}
	}
	return ops
}

// replayResult totals one replay pass.
type replayResult struct {
	elapsed         time.Duration
	lines, alerts   int
	kept            int
	appendedBatches int
	perShard        map[int]int
	batches         [][]store.Entry // appended entries per ingest op, for the split replay
}

// warmUp sends the dashboard once, as the served run does before its
// phases, outside any request and without spans.
func warmUp(p *plan, tg target) error {
	for _, it := range p.hot {
		req, err := parseRequest(it)
		if err == nil {
			err = tg.aggregate(req.f, req.opts)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", it.url, err)
		}
	}
	return nil
}

// replay runs ops against tg, one root span per request, mirroring
// serve's handlers stage by stage. Request ids start after base; the
// time taken adds to res.elapsed.
func replay(tr *tracer, p *plan, tg target, ops []replayOp, base int, res *replayResult) error {
	start := time.Now()
	defer func() { res.elapsed += time.Since(start) }()
	for i, op := range ops {
		root := tr.begin("serve."+op.class, 0, int64(base+i+1))
		leave := tr.enter(root)
		var err error
		switch op.class {
		case classIngest:
			err = replayIngest(tr, p, tg, op.item, res)
		case classQuery, classAggregate:
			var req request
			if req, err = parseRequest(p.reads[op.item]); err == nil {
				if op.class == classQuery {
					err = tg.selectEntries(req.f, req.limit)
				} else {
					err = tg.aggregate(req.f, req.opts)
				}
			}
		case classPredict:
			tg.predict()
		}
		leave()
		root.end("")
		if err != nil {
			return fmt.Errorf("replay op %d (%s): %w", base+i, op.class, err)
		}
	}
	return nil
}

// replayChunk is how many requests one copy replays before the other
// takes its turn.
const replayChunk = 20

// tracedRun replays the open phases' requests in-process on two fresh
// copies of the preloaded store, one untraced and one traced,
// alternating chunks between them so warm-up effects fall on both
// alike. It returns the traced copy's spans and both copies' times.
func tracedRun(runDir, snapshot string, p *plan) (traceOut, error) {
	var out traceOut
	open := func(tr *tracer, name string) (target, error) {
		dir := filepath.Join(runDir, name)
		if err := copyDir(snapshot, dir); err != nil {
			return nil, err
		}
		var tg target
		var err error
		if p.w.shards > 0 {
			tg, err = openSharded(tr, dir)
		} else {
			tg, err = openSingle(tr, dir)
		}
		if err == nil {
			err = warmUp(p, tg)
		}
		return tg, err
	}
	off, on := newTracer(false), newTracer(true)
	plain, err := open(off, "untraced")
	if err != nil {
		return out, err
	}
	defer plain.close()
	traced, err := open(on, "traced")
	if err != nil {
		return out, err
	}
	defer traced.close()
	ops := replayOps(p)
	untraced := replayResult{perShard: map[int]int{}}
	out.res = replayResult{perShard: map[int]int{}}
	for i := 0; i < len(ops); i += replayChunk {
		chunk := ops[i:min(i+replayChunk, len(ops))]
		if err := replay(off, p, plain, chunk, i, &untraced); err != nil {
			return out, err
		}
		if err := replay(on, p, traced, chunk, i, &out.res); err != nil {
			return out, err
		}
	}
	out.spans, out.untraced = on.done(), untraced.elapsed
	if p.w.shards > 0 {
		dir := filepath.Join(runDir, "split")
		if err := copyDir(snapshot, dir); err != nil {
			return out, err
		}
		if out.splitSpans, err = splitObservers(dir, p.w.shards, out.res.batches); err != nil {
			return out, err
		}
	}
	return out, nil
}

func replayIngest(tr *tracer, p *plan, tg target, item int, res *replayResult) error {
	sys := p.w.sys
	m, err := cluster.New(sys)
	if err != nil {
		return err
	}
	a := tr.child("ingest.read_all")
	recs, st, err := ingest.ReadAll(bytes.NewReader(p.batches[item]), sys, m.LogStart)
	a.end("")
	if err != nil {
		return err
	}
	b := tr.child("tag.tag_all")
	alerts := tag.NewTagger(sys).TagAll(recs)
	b.end("")
	c := tr.child("filter.sort_filter")
	tag.SortAlerts(alerts)
	kept := filter.Simultaneous{T: filter.DefaultThreshold}.Filter(alerts)
	c.end("")
	d := tr.child("store.from_alerts")
	entries := store.FromAlerts(alerts, kept)
	d.end("")
	res.lines += st.Lines
	res.alerts += len(alerts)
	res.kept += len(kept)
	if len(entries) == 0 {
		return nil
	}
	per, err := tg.appendEntries(entries)
	for id, n := range per {
		res.perShard[id] += n
	}
	res.appendedBatches++
	res.batches = append(res.batches, entries)
	return err
}

// splitObservers replays the appended batches of a sharded run into
// each shard's store opened on its own, with the benchmark's observer
// timing the standing registry and the correlation miner separately —
// the cluster fans both out in one call it does not expose.
func splitObservers(dir string, shards int, batches [][]store.Entry) ([]span, error) {
	tr := newTracer(true)
	stores := make([]*single, shards)
	for id := range stores {
		s, err := openSingle(tr, shard.ShardDir(dir, id))
		if err != nil {
			return nil, err
		}
		defer s.close()
		stores[id] = s
	}
	for i, entries := range batches {
		parts := make([][]store.Entry, shards)
		for _, en := range entries {
			id := shard.ShardFor(en.Record.Source, shards)
			parts[id] = append(parts[id], en)
		}
		root := tr.begin("serve.ingest", 0, int64(i+1))
		leave := tr.enter(root)
		for id, part := range parts {
			if len(part) == 0 {
				continue
			}
			if err := stores[id].ts.Append(part...); err != nil {
				leave()
				return nil, err
			}
		}
		leave()
		root.end("")
	}
	return tr.done(), nil
}

// copyDir copies the regular files of a store directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, in); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
