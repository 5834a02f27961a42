package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/tag"
)

// benchScale is the simulate volume scale every workload draws from:
// Liberty yields 533,047 lines and Spirit 554,728 lines (355,921
// alerts) at seed 1.
const benchScale = 0.002

// Request classes, one per endpoint the benchmark drives.
const (
	classIngest    = "ingest"
	classQuery     = "query"
	classAggregate = "aggregate"
	classPredict   = "predict"
)

var classes = []string{classIngest, classQuery, classAggregate, classPredict}

// Stream kinds: what a stream's connections send.
const (
	streamIngest = "ingest"
	streamReads  = "reads"
)

// stream is one kind of traffic in a phase, carried by conns client
// connections. In an open phase, rate is the stream's offered load in
// requests per second: its slots fall due at a constant interval and
// each goes to whichever of the stream's connections is free first.
type stream struct {
	kind  string
	conns int
	rate  float64
}

// phase is one measured interval of a run. Share is its fraction of
// --seconds. Open phases send on the fixed schedule whatever the
// server does; closed phases send each connection's next request when
// its previous answer arrives. Workloads run open phases before closed
// ones and reads before ingest, so every latency phase starts from a
// store whose content depends on the seed alone, not on how much a
// closed phase managed to ingest.
type phase struct {
	name    string
	open    bool
	share   float64
	streams []stream
}

// stream returns the phase's stream of the given kind.
func (ph phase) stream(kind string) (stream, bool) {
	for _, st := range ph.streams {
		if st.kind == kind {
			return st, true
		}
	}
	return stream{}, false
}

// readKind names one read template; the seeded plan draws concrete
// URLs from each.
type readKind string

const (
	hotAggregate    readKind = "agg-hot"    // dashboard set, fits the aggregate cache
	windowAggregate readKind = "agg-window" // columnar, time-windowed
	sourceAggregate readKind = "agg-source" // columnar, one mid-sized source
	bodyAggregate   readKind = "agg-body"   // row-decode path: body= over a window
	windowQuery     readKind = "q-window"
	sourceQuery     readKind = "q-source"
	heavyQuery      readKind = "q-heavy" // the busiest source
	allQuery        readKind = "q-all"   // unfiltered
	predictRead     readKind = "predict"
)

// workload is one traffic shape against one `logstudy serve`.
type workload struct {
	name string
	why  string
	sys  logrec.System
	// shards is serve's -shards value (0 = single store).
	shards int
	// preload is how the store is filled before measuring:
	// "build-store" (logstudy build-store -in the corpus log) or "http"
	// (serve creates the store and the corpus is POSTed to
	// /api/ingest in preloadBatchLines batches).
	preload string
	// separateStream draws the ingest stream from its own seed instead
	// of re-sending the preload's lines.
	separateStream bool
	batchLines     int
	// readCycle is the multiset of read templates in one cycle of the
	// read stream: class shares are fixed, and only the concrete
	// requests vary with the seed.
	readCycle map[readKind]int
	phases    []phase
}

const preloadBatchLines = 5000

var workloads = []workload{
	{
		name:       "ingest-liberty",
		why:        "Liberty: 533,047 lines yield 2,445 alerts, so parse and tag dominate ingest and the store barely moves",
		sys:        logrec.Liberty,
		preload:    "build-store",
		batchLines: 500,
		readCycle: map[readKind]int{
			hotAggregate: 12, windowAggregate: 3, sourceAggregate: 3,
			windowQuery: 10, sourceQuery: 4, allQuery: 1, predictRead: 7,
		},
		phases: []phase{
			{name: "reads-open", open: true, share: 0.25, streams: []stream{{streamReads, 2, 120}}},
			{name: "reads-closed", share: 0.15, streams: []stream{{streamReads, 2, 0}}},
			{name: "ingest-open", open: true, share: 0.35, streams: []stream{{streamIngest, 2, 150}}},
			{name: "ingest-closed", share: 0.25, streams: []stream{{streamIngest, 2, 0}}},
		},
	},
	{
		name:       "query-spirit",
		why:        "reads on a 355,921-entry Spirit store: scan, sort and the aggregate cache do the work; ingest runs only after them",
		sys:        logrec.Spirit,
		preload:    "build-store",
		batchLines: 200,
		readCycle: map[readKind]int{
			hotAggregate: 56, sourceAggregate: 8, windowAggregate: 14, bodyAggregate: 2,
			windowQuery: 48, sourceQuery: 12, heavyQuery: 1, allQuery: 1, predictRead: 16,
		},
		phases: []phase{
			{name: "reads-open", open: true, share: 0.40, streams: []stream{{streamReads, 2, 40}}},
			{name: "reads-closed", share: 0.20, streams: []stream{{streamReads, 2, 0}}},
			{name: "ingest-open", open: true, share: 0.15, streams: []stream{{streamIngest, 2, 120}}},
			{name: "ingest-closed", share: 0.25, streams: []stream{{streamIngest, 2, 0}}},
		},
	},
	{
		name:           "mixed-spirit-shards4",
		why:            "Spirit ingest beside reads on 4 shards: appends, seals, observers and scatter/gather contend",
		sys:            logrec.Spirit,
		shards:         4,
		preload:        "http",
		separateStream: true,
		batchLines:     200,
		readCycle: map[readKind]int{
			hotAggregate: 2, windowAggregate: 12, sourceAggregate: 2,
			sourceQuery: 14, predictRead: 8,
		},
		phases: []phase{
			{name: "mixed-open", open: true, share: 0.75, streams: []stream{{streamIngest, 1, 40}, {streamReads, 1, 6}}},
			{name: "mixed-closed", share: 0.25, streams: []stream{{streamIngest, 1, 0}, {streamReads, 1, 0}}},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// readItem is one GET the read stream can send.
type readItem struct {
	class string
	kind  readKind
	url   string // path and query
}

// slot is one scheduled open-loop request: when it is due, relative to
// the phase start, and which input it sends (a batch index for ingest
// connections, a read index otherwise).
type slot struct {
	due  time.Duration
	item int
}

// plan is everything a run sends, derived from (workload, seed, scale,
// seconds) alone.
type plan struct {
	w       workload
	seed    int64
	seconds int

	preload     [][]byte   // preload batches (raw lines, newline-terminated)
	batches     [][]byte   // ingest stream batches
	reads       []readItem // the read stream, consumed cyclically
	hot         []readItem // warmed before measuring
	verify      []readItem // the sample checked byte-for-byte after the run
	schedule    [][][]slot // [phase][stream] open-loop slots
	fingerprint uint64
}

// readStreamLen is how many read items the stream holds before it
// wraps; more than any closed phase completes.
const readStreamLen = 4096

// verifySample is how many reads are re-checked against the in-process
// engine after the run.
const verifySample = 16

// buildPlan generates the run's inputs. Generation is deterministic in
// (workload, seed, scale): simulate.Generate is byte-reproducible and
// every other choice draws from an rng seeded from seed.
func buildPlan(w workload, seed int64, scale float64, seconds int) (*plan, error) {
	p := &plan{w: w, seed: seed, seconds: seconds}
	lines, c, err := generate(w.sys, scale, corpusSeed, true)
	if err != nil {
		return nil, err
	}
	stream := lines
	if w.preload != "" {
		p.preload = chunk(lines, preloadBatchLines)
	}
	if w.separateStream {
		if stream, _, err = generate(w.sys, scale, streamSeed, false); err != nil {
			return nil, err
		}
	}
	p.batches = chunk(stream, w.batchLines)

	rng := rand.New(rand.NewSource(seed*1000003 + int64(len(w.name))))
	p.hot = c.hotSet()
	p.reads = c.readStream(rng, w.readCycle, p.hot, readStreamLen)
	for _, i := range rng.Perm(len(p.reads))[:verifySample] {
		if p.reads[i].class != classPredict {
			p.verify = append(p.verify, p.reads[i])
		}
	}
	p.schedule = schedules(w, rng, seconds, len(p.batches), len(p.reads))
	p.fingerprint = p.hash()
	return p, nil
}

// generate returns one seeded synthetic log's lines and, when asked,
// what the planner needs to know about its alerts.
func generate(sys logrec.System, scale float64, seed int64, withContent bool) ([]string, content, error) {
	out, err := simulate.Generate(simulate.Config{System: sys, Scale: scale, Seed: seed})
	if err != nil {
		return nil, content{}, fmt.Errorf("generate %s seed %d: %w", sys.ShortName(), seed, err)
	}
	var c content
	if withContent {
		c = contentOf(sys, out.Records)
	}
	return out.Lines, c, nil
}

// The logs are a fixed corpus, like the paper's five: simulate seed
// corpusSeed makes every preload (and the re-sent ingest streams), and
// streamSeed the mixed workload's separate ingest stream. --seed draws
// the traffic: which windows, sources and words each read uses, the
// verification sample and the schedule's phase offsets. Varying the
// corpus with --seed would vary the work itself — Spirit's bursts and
// incident counts differ from seed to seed — and with it every figure.
const (
	corpusSeed = 1
	streamSeed = 2
)

// chunk joins lines into newline-terminated batches of n lines.
func chunk(lines []string, n int) [][]byte {
	var out [][]byte
	for i := 0; i < len(lines); i += n {
		j := min(i+n, len(lines))
		var sb strings.Builder
		for _, l := range lines[i:j] {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		out = append(out, []byte(sb.String()))
	}
	return out
}

// schedules lays out every open phase's constant-rate slots, each
// stream starting at a seeded offset inside its first interval.
func schedules(w workload, rng *rand.Rand, seconds, nBatches, nReads int) [][][]slot {
	out := make([][][]slot, len(w.phases))
	ingestNext, readNext := nBatches/2, 0
	for pi, ph := range w.phases {
		out[pi] = make([][]slot, len(ph.streams))
		if !ph.open {
			continue
		}
		length := time.Duration(ph.share * float64(seconds) * float64(time.Second))
		for si, st := range ph.streams {
			interval := time.Duration(float64(time.Second) / st.rate)
			offset := time.Duration(rng.Int63n(int64(interval)))
			for due := offset; due < length; due += interval {
				var item int
				if st.kind == streamIngest {
					item, ingestNext = ingestNext%nBatches, ingestNext+1
				} else {
					item, readNext = readNext%nReads, readNext+1
				}
				out[pi][si] = append(out[pi][si], slot{due: due, item: item})
			}
		}
	}
	return out
}

// hash fingerprints the run's inputs: batch bytes, read URLs, the
// verification sample and the open-loop schedule.
func (p *plan) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|", p.w.name, p.seed, p.seconds)
	for _, b := range p.preload {
		h.Write(b)
	}
	h.Write([]byte{0})
	for _, b := range p.batches {
		h.Write(b)
	}
	h.Write([]byte{0})
	for _, set := range [][]readItem{p.hot, p.reads, p.verify} {
		for _, r := range set {
			fmt.Fprintf(h, "%s %s\n", r.class, r.url)
		}
		h.Write([]byte{0})
	}
	for pi, streams := range p.schedule {
		for si, slots := range streams {
			fmt.Fprintf(h, "phase %d stream %d:", pi, si)
			for _, s := range slots {
				fmt.Fprintf(h, " %d@%d", s.item, s.due)
			}
		}
	}
	return h.Sum64()
}

// content is what the planner knows about a store's alerts, used to
// aim reads at realistic windows and sources.
type content struct {
	times   []time.Time // alert times, sorted
	sources []string    // by alert count, descending
	cats    []string    // by alert count, descending
	words   []string    // body tokens for body= filters
}

func contentOf(sys logrec.System, recs []logrec.Record) content {
	alerts := tag.NewTagger(sys).TagAll(recs)
	var c content
	srcN, catN := map[string]int{}, map[string]int{}
	seenWord := map[string]bool{}
	for i, a := range alerts {
		c.times = append(c.times, a.Record.Time)
		srcN[a.Record.Source]++
		catN[a.Category.Name]++
		if i%97 == 0 {
			for _, f := range strings.Fields(a.Record.Body) {
				if len(f) >= 5 && isWord(f) && !seenWord[f] {
					seenWord[f] = true
					c.words = append(c.words, f)
				}
			}
		}
	}
	sort.Slice(c.times, func(i, j int) bool { return c.times[i].Before(c.times[j]) })
	c.sources = byCount(srcN)
	c.cats = byCount(catN)
	sort.Strings(c.words)
	return c
}

func isWord(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return false
		}
	}
	return true
}

func byCount(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if m[out[i]] != m[out[j]] {
			return m[out[i]] > m[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

func agg(v url.Values) readItem {
	return readItem{class: classAggregate, url: "/api/aggregate" + encode(v)}
}

func qry(v url.Values) readItem {
	return readItem{class: classQuery, url: "/api/query" + encode(v)}
}

func encode(v url.Values) string {
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// hotSet is the dashboard: at most 32 distinct aggregates, so all of
// them stay in the 256-entry aggregate cache.
func (c content) hotSet() []readItem {
	out := []readItem{
		agg(nil),
		agg(url.Values{"quantiles": {"0.5,0.9,0.99"}, "topk": {"5"}}),
		agg(url.Values{"kept": {"true"}}),
	}
	for _, s := range c.sources[:min(8, len(c.sources))] {
		out = append(out, agg(url.Values{"source": {s}}))
	}
	for _, k := range c.cats[:min(6, len(c.cats))] {
		out = append(out, agg(url.Values{"category": {k}}))
	}
	if n := len(c.times); n > 0 {
		for q := 0; q < 4; q++ {
			out = append(out, agg(window(c.times[q*n/4], c.times[min((q+1)*n/4, n-1)])))
		}
	}
	for i := range out {
		out[i].kind = hotAggregate
	}
	return out
}

// window filters [from, to] at second resolution, widened to cover
// both ends.
func window(from, to time.Time) url.Values {
	return url.Values{
		"from": {from.Truncate(time.Second).UTC().Format(time.RFC3339)},
		"to":   {to.Truncate(time.Second).Add(time.Second).UTC().Format(time.RFC3339)},
	}
}

// Window sizes in alerts: cold reads cover a fixed number of entries
// wherever they land, so their cost does not depend on the seed.
const (
	aggWindowEntries   = 20000
	queryWindowEntries = 5000
)

// picker spreads each read kind's choices evenly over the corpus: a
// golden-ratio sequence per kind from a seeded start. Every seed then
// samples windows, sources and words in the same proportions, and only
// their exact positions move with the seed.
type picker struct {
	c       content
	hot     []readItem
	hotNext int
	pos     map[readKind]float64
}

func newPicker(rng *rand.Rand, c content, hot []readItem, kinds []readKind) *picker {
	pk := &picker{c: c, hot: hot, pos: map[readKind]float64{}}
	for _, k := range kinds {
		pk.pos[k] = rng.Float64()
	}
	return pk
}

// next returns kind k's next point in [0, 1).
func (pk *picker) next(k readKind) float64 {
	u := pk.pos[k]
	pk.pos[k] = math.Mod(u+0.6180339887498949, 1)
	return u
}

// at maps u in [0, 1) onto an index below n.
func at(u float64, n int) int { return min(int(u*float64(n)), n-1) }

// window spans about n alerts starting at point u of the corpus.
func (pk *picker) window(u float64, n int) url.Values {
	times := pk.c.times
	n = min(n, max(1, len(times)/8))
	i := at(u, max(1, len(times)-n))
	return window(times[i], times[min(i+n, len(times)-1)])
}

// midSource picks a source from the middle half of the ranking, where
// per-source counts are alike, so a source read's cost does not hinge
// on the pick.
func (pk *picker) midSource(u float64) string {
	src := pk.c.sources
	return src[len(src)/4+at(u, max(1, len(src)/2))]
}

func (pk *picker) item(k readKind) readItem {
	var it readItem
	switch k {
	case hotAggregate:
		it = pk.hot[pk.hotNext%len(pk.hot)]
		pk.hotNext++
		return it
	case windowAggregate:
		it = agg(pk.window(pk.next(k), aggWindowEntries))
	case sourceAggregate:
		// A varying topk keeps repeat picks of one source distinct in
		// the cache, so the explore set stays larger than the cache.
		u := pk.next(k)
		it = agg(url.Values{"source": {pk.midSource(u)}, "topk": {fmt.Sprint(3 + at(math.Mod(u*97, 1), 20))}})
	case bodyAggregate:
		u := pk.next(k)
		v := pk.window(u, aggWindowEntries)
		word := "error"
		if len(pk.c.words) > 0 {
			word = pk.c.words[at(math.Mod(u*89, 1), len(pk.c.words))]
		}
		v.Set("body", word)
		it = agg(v)
	case windowQuery:
		v := pk.window(pk.next(k), queryWindowEntries)
		v.Set("limit", "100")
		it = qry(v)
	case sourceQuery:
		it = qry(url.Values{"source": {pk.midSource(pk.next(k))}, "limit": {"100"}})
	case heavyQuery:
		it = qry(url.Values{"source": {pk.c.sources[0]}, "limit": {"100"}})
	case allQuery:
		it = qry(url.Values{"limit": {"50"}})
	case predictRead:
		it = readItem{class: classPredict, url: "/api/predict"}
	}
	it.kind = k
	return it
}

// readStream repeats one cycle of the workload's read mix. The cycle's
// order is fixed — each kind spread evenly through it by smooth
// weighted round-robin — so every seed offers the same sequence of
// kinds and heavy reads never bunch up; the seed moves only the
// concrete requests (see picker).
func (c content) readStream(rng *rand.Rand, cycle map[readKind]int, hot []readItem, n int) []readItem {
	kinds := make([]readKind, 0, len(cycle))
	total := 0
	for k, cnt := range cycle {
		kinds = append(kinds, k)
		total += cnt
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	credit := make([]int, len(kinds))
	var order []readKind
	for len(order) < total {
		best := 0
		for i, k := range kinds {
			credit[i] += cycle[k]
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		order = append(order, kinds[best])
	}
	pk := newPicker(rng, c, hot, kinds)
	out := make([]readItem, 0, n)
	for len(out) < n {
		out = append(out, pk.item(order[len(out)%total]))
	}
	return out
}
