package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// scanStats mirrors the stats block of query and aggregate responses.
type scanStats struct {
	Segments       int `json:"segments"`
	SegmentsPruned int `json:"segments_pruned"`
	RecordsScanned int `json:"records_scanned"`
	Matched        int `json:"matched"`
}

// ingestReply mirrors POST /api/ingest's body.
type ingestReply struct {
	Lines       int `json:"lines"`
	ParseErrors int `json:"parse_errors"`
	Alerts      int `json:"alerts"`
	Kept        int `json:"kept"`
	Appended    int `json:"appended"`
}

// sample is one request's outcome. Times are relative to the phase
// start; due is zero in closed phases.
type sample struct {
	phase int
	class string
	item  int // batch index (ingest) or read index

	due, done time.Duration
	// lag is how late the generator sent an open-loop request while
	// its connection was idle — the generator's own delay, not queueing
	// behind a slow answer.
	lag time.Duration

	status   int
	err      string // transport error or wrong answer; "" when correct
	ingest   ingestReply
	stats    scanStats
	hasStats bool
	partial  bool
	aggHash  string // the aggregate field, for repeat-consistency checks
}

func (s sample) ok() bool { return s.err == "" && s.status == http.StatusOK }

// latency is the open-loop latency: answer time minus due time.
func (s sample) latency() time.Duration { return s.done - s.due }

// loader sends requests to one serve over at most two connections.
type loader struct {
	client *http.Client
	base   string
	plan   *plan
}

func newClient() *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// do sends one request and classifies the answer.
func (d *loader) do(class string, item int) sample {
	s := sample{class: class, item: item}
	var req *http.Request
	var err error
	if class == classIngest {
		req, err = http.NewRequest(http.MethodPost, d.base+"/api/ingest", bytes.NewReader(d.plan.batches[item]))
	} else {
		req, err = http.NewRequest(http.MethodGet, d.base+d.plan.reads[item].url, nil)
	}
	if err != nil {
		s.err = err.Error()
		return s
	}
	resp, err := d.client.Do(req)
	if err != nil {
		s.err = err.Error()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	if err != nil {
		s.err = err.Error()
		return s
	}
	if s.status != http.StatusOK {
		s.err = fmt.Sprintf("status %d: %.200s", s.status, body)
		return s
	}
	s.err = checkReply(&s, body)
	return s
}

// checkReply decodes an answer and checks what can be checked without
// a reference: consistent counts and full shard coverage. Ingest
// counts are checked against the in-process pipeline after the run.
func checkReply(s *sample, body []byte) string {
	switch s.class {
	case classIngest:
		if err := json.Unmarshal(body, &s.ingest); err != nil {
			return "ingest reply: " + err.Error()
		}
	case classQuery:
		var r struct {
			Stats   *scanStats        `json:"stats"`
			Count   int               `json:"count"`
			Entries []json.RawMessage `json:"entries"`
			Partial bool              `json:"partial"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return "query reply: " + err.Error()
		}
		if r.Stats == nil || r.Count != len(r.Entries) {
			return fmt.Sprintf("query reply: count %d with %d entries", r.Count, len(r.Entries))
		}
		s.stats, s.hasStats, s.partial = *r.Stats, true, r.Partial
		if r.Partial {
			return "query reply: partial coverage"
		}
	case classAggregate:
		var r struct {
			Stats     *scanStats      `json:"stats"`
			Aggregate json.RawMessage `json:"aggregate"`
			Partial   bool            `json:"partial"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return "aggregate reply: " + err.Error()
		}
		var a struct {
			Total int `json:"total"`
		}
		if r.Stats == nil || json.Unmarshal(r.Aggregate, &a) != nil {
			return "aggregate reply: missing stats or aggregate"
		}
		s.stats, s.hasStats, s.partial = *r.Stats, true, r.Partial
		if r.Partial {
			return "aggregate reply: partial coverage"
		}
		if a.Total != r.Stats.Matched {
			return fmt.Sprintf("aggregate reply: total %d but %d matched", a.Total, r.Stats.Matched)
		}
		s.aggHash = string(r.Aggregate)
	case classPredict:
		if !json.Valid(body) {
			return "predict reply: invalid JSON"
		}
	}
	return ""
}

// cursor hands out the next input of a closed-loop stream.
type cursor struct{ n atomic.Int64 }

func (c *cursor) next(mod int) int { return int((c.n.Add(1) - 1) % int64(mod)) }

// runPhase drives one phase and returns its samples. Closed phases run
// until their length passes; open phases send every slot due within
// their length, abandoning (and failing) slots whose stream is more
// than abandonAfter behind the phase end.
func (d *loader) runPhase(ctx context.Context, pi int, length time.Duration, ingestCur, readCur *cursor) []sample {
	ph := d.plan.w.phases[pi]
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	for si, st := range ph.streams {
		var next atomic.Int64 // the stream's next open-loop slot
		cur := readCur
		if st.kind == streamIngest {
			cur = ingestCur
		}
		for c := 0; c < st.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []sample
				if ph.open {
					mine = d.openConn(ctx, start, length, d.plan.schedule[pi][si], &next, st.kind)
				} else {
					mine = d.closedConn(ctx, start, length, st.kind, cur)
				}
				for i := range mine {
					mine[i].phase = pi
				}
				mu.Lock()
				out = append(out, mine...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return out
}

const abandonAfter = 5 * time.Second

func (d *loader) classOf(kind string, item int) string {
	if kind == streamIngest {
		return classIngest
	}
	return d.plan.reads[item].class
}

// openConn is one connection of an open stream: it takes the stream's
// next slot whenever it is free, waits until the slot is due and sends.
func (d *loader) openConn(ctx context.Context, start time.Time, length time.Duration, slots []slot, next *atomic.Int64, kind string) []sample {
	var out []sample
	var free time.Duration // when this connection's previous answer arrived
	for {
		i := int(next.Add(1) - 1)
		if i >= len(slots) {
			return out
		}
		sl := slots[i]
		now := time.Since(start)
		if now > length+abandonAfter || ctx.Err() != nil {
			out = append(out, sample{class: d.classOf(kind, sl.item), item: sl.item, due: sl.due, done: now, err: "abandoned: the stream fell behind its schedule"})
			continue
		}
		if wait := sl.due - now; wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		s := d.do(d.classOf(kind, sl.item), sl.item)
		s.due, s.done = sl.due, time.Since(start)
		s.lag = sent - max(sl.due, free)
		free = s.done
		out = append(out, s)
	}
}

// closedConn is one closed-loop connection: next request as soon as
// the previous answer arrives, inputs taken from the stream's cursor.
func (d *loader) closedConn(ctx context.Context, start time.Time, length time.Duration, kind string, cur *cursor) []sample {
	var out []sample
	n := len(d.plan.reads)
	if kind == streamIngest {
		n = len(d.plan.batches)
	}
	for time.Since(start) < length && ctx.Err() == nil {
		item := cur.next(n)
		s := d.do(d.classOf(kind, item), item)
		s.done = time.Since(start)
		out = append(out, s)
	}
	return out
}

// get fetches one URL outside any phase (warm-up, verification).
func (d *loader) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// preloadHTTP posts the preload batches over two connections and
// returns the entries the server acknowledged.
func (d *loader) preloadHTTP(ctx context.Context) (int, error) {
	var next atomic.Int64
	var appended atomic.Int64
	errc := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func() {
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(d.plan.preload) {
					errc <- nil
					return
				}
				resp, err := d.client.Post(d.base+"/api/ingest", "text/plain", bytes.NewReader(d.plan.preload[i]))
				if err != nil {
					errc <- fmt.Errorf("preload batch %d: %w", i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("preload batch %d: status %d: %v %.200s", i, resp.StatusCode, err, body)
					return
				}
				var r ingestReply
				if err := json.Unmarshal(body, &r); err != nil {
					errc <- fmt.Errorf("preload batch %d: %w", i, err)
					return
				}
				appended.Add(int64(r.Appended))
			}
			errc <- ctx.Err()
		}()
	}
	var first error
	for w := 0; w < 2; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return int(appended.Load()), first
}
