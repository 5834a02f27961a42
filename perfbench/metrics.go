package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports (the
// comparison contract wants each on every run), in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_lines_per_s", "lines/s"},
	{"ingest_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"aggregate_p50_ms", "ms"},
	{"store_bytes_per_entry", "B"},
}

// printedOnly are end-to-end figures printed but not declared: across
// ten seeds on this class of machine they did not repeat safely within
// the largest allowed bound, 0.25, on every workload (see README.md).
// failed_frac is 0 on a healthy run, where a relative spread means
// nothing; correct and failed carry it.
var printedOnly = []metricDef{
	{"predict_p50_ms", "ms"},
	{"reads_per_s", "req/s"},
	{"server_peak_rss_mb", "MB"},
	{"ingest_p90_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"aggregate_p90_ms", "ms"},
	{"aggregate_p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

// layerSpans are the spans whose self-time share is reported per
// workload, named after the repository's modules.
var layerSpans = []string{
	"serve.ingest", "ingest.read_all", "tag.tag_all", "filter.sort_filter",
	"store.from_alerts", "store.append", "store.observer",
	"query.standing_on_mutation", "correlate.on_mutation", "shard.append",
	"serve.query", "query.select", "shard.select",
	"serve.aggregate", "query.aggregate", "shard.aggregate",
	"store.scan", "store.scan_columns",
	"serve.predict", "correlate.predict",
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"ingest.read_all_us_per_kline", "us"},
		{"tag.tag_all_us_per_kline", "us"},
		{"tag.alerts_per_kline", "count"},
		{"filter.sort_filter_us_per_kline", "us"},
		{"filter.kept_frac", "ratio"},
		{"store.append_ms_p50", "ms"},
		{"store.append_ms_p99", "ms"},
		{"store.seal_append_ms_p50", "ms"},
		{"store.seals", "count"},
		{"query.standing_on_mutation_us_per_batch", "us"},
		{"correlate.on_mutation_us_per_batch", "us"},
		{"store.scan_ms_p50", "ms"},
		{"store.scan_columns_ms_p50", "ms"},
		{"store.records_scanned_per_result", "ratio"},
		{"store.segments_pruned_frac", "ratio"},
		{"query.select_self_ms_p50", "ms"},
		{"query.aggregate_self_ms_p50", "ms"},
		{"query.cache_hit_frac", "ratio"},
		{"correlate.predict_ms_p50", "ms"},
		{"shard.append_ms_p50", "ms"},
		{"shard.aggregate_ms_p50", "ms"},
		{"shard.select_ms_p50", "ms"},
		{"shard.max_shard_share", "ratio"},
		{"shard.rejected_frac", "ratio"},
		{"shard.partial_frac", "ratio"},
		{"serve.residual_ingest_ms_p50", "ms"},
		{"serve.residual_query_ms_p50", "ms"},
		{"serve.residual_aggregate_ms_p50", "ms"},
		{"serve.residual_predict_ms_p50", "ms"},
		{"bench.late_p99_ms", "ms"},
		{"bench.tracing_overhead_frac", "ratio"},
	}
	for _, name := range layerSpans {
		defs = append(defs, metricDef{"self_frac." + name, "ratio"})
	}
	return defs
}

// runFacts is what a run measured outside the load phases.
type runFacts struct {
	setup       []time.Duration
	phaseLen    []time.Duration
	peakRSSMB   float64
	storeBytes  int64
	storeTotal  int
	failedExtra int // verification and total-check failures
	attempted   int
}

// e2eMetrics computes the end-to-end figures from the load samples.
// Open-loop latencies run from each request's due time; a failed
// request counts as taking the whole phase.
func e2eMetrics(p *plan, samples []sample, f runFacts) (map[string]float64, map[string]int, int) {
	m := map[string]float64{}
	n := map[string]int{}
	// Closed-loop rates count every answer a closed stream got, over the
	// time its last answer arrived. Counting only answers inside the
	// nominal length would drop a heavy request still running at the
	// deadline, and the rate would jump in steps of whole requests.
	type closedStream struct {
		phase  int
		ingest bool
	}
	work := map[closedStream]float64{}
	end := map[closedStream]time.Duration{}
	lat := map[string][]float64{}
	failed := f.failedExtra
	for _, s := range samples {
		if !s.ok() {
			failed++
		}
		if !p.w.phases[s.phase].open {
			k := closedStream{s.phase, s.class == classIngest}
			end[k] = max(end[k], s.done)
			switch {
			case !s.ok():
			case k.ingest:
				work[k] += float64(s.ingest.Lines)
			default:
				work[k]++
			}
			continue
		}
		l := s.latency()
		if !s.ok() {
			l = f.phaseLen[s.phase]
		}
		lat[s.class] = append(lat[s.class], ms(l))
	}
	var lines, reads, ingestSecs, readSecs float64
	for k, e := range end {
		if k.ingest {
			lines, ingestSecs = lines+work[k], ingestSecs+e.Seconds()
		} else {
			reads, readSecs = reads+work[k], readSecs+e.Seconds()
		}
	}
	if ingestSecs > 0 {
		m["ingest_lines_per_s"] = lines / ingestSecs
	}
	if readSecs > 0 {
		m["reads_per_s"] = reads / readSecs
	}
	for _, c := range classes {
		xs := lat[c]
		n[c] = len(xs)
		m[c+"_p50_ms"] = quantile(xs, 0.50)
		m[c+"_p90_ms"] = quantile(xs, 0.90)
		m[c+"_p99_ms"] = quantile(xs, 0.99)
	}
	var setup []float64
	for _, d := range f.setup {
		setup = append(setup, d.Seconds())
	}
	m["setup_s"] = median(setup)
	m["server_peak_rss_mb"] = f.peakRSSMB
	if f.storeTotal > 0 {
		m["store_bytes_per_entry"] = float64(f.storeBytes) / float64(f.storeTotal)
	}
	m["failed_frac"] = float64(failed) / float64(max(f.attempted, 1))
	return m, n, failed
}

// lateP99 is the 99th percentile of the generator's own send delay in
// open phases.
func lateP99(p *plan, samples []sample) float64 {
	var xs []float64
	for _, s := range samples {
		if p.w.phases[s.phase].open && s.status != 0 {
			xs = append(xs, ms(s.lag))
		}
	}
	return quantile(xs, 0.99)
}

// traceOut is what the traced in-process run measured.
type traceOut struct {
	spans      []span
	splitSpans []span // sharded runs: per-shard observer split
	res        replayResult
	untraced   time.Duration
}

// layerMetrics computes the per-layer figures from the traced spans
// and the end-to-end samples of the same run.
func layerMetrics(p *plan, t traceOut, samples []sample, e2e map[string]float64) map[string]float64 {
	m := map[string]float64{}
	self := selfTimes(t.spans)
	durs := map[string][]float64{}
	sums := map[string]time.Duration{}
	selfMs := map[string][]float64{}
	kids := map[int64]int{}
	for _, s := range t.spans {
		kids[s.Parent]++
	}
	var sealed []float64
	var aggs, aggHits float64
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		sums[s.Name] += s.dur()
		selfMs[s.Name] = append(selfMs[s.Name], ms(self[s.ID]))
		if s.Name == "store.append" && s.Tag == "sealed" {
			sealed = append(sealed, ms(s.dur()))
		}
		if s.Name == "query.aggregate" || s.Name == "shard.aggregate" {
			aggs++
			if kids[s.ID] == 0 {
				aggHits++
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	perKline := func(name string) float64 {
		if t.res.lines == 0 {
			return 0
		}
		return us(sums[name]) / (float64(t.res.lines) / 1000)
	}
	m["ingest.read_all_us_per_kline"] = perKline("ingest.read_all")
	m["tag.tag_all_us_per_kline"] = perKline("tag.tag_all")
	m["filter.sort_filter_us_per_kline"] = perKline("filter.sort_filter")
	if t.res.lines > 0 {
		m["tag.alerts_per_kline"] = float64(t.res.alerts) / (float64(t.res.lines) / 1000)
	}
	if t.res.alerts > 0 {
		m["filter.kept_frac"] = float64(t.res.kept) / float64(t.res.alerts)
	}
	m["store.append_ms_p50"] = quantile(durs["store.append"], 0.5)
	m["store.append_ms_p99"] = quantile(durs["store.append"], 0.99)
	m["store.seal_append_ms_p50"] = quantile(sealed, 0.5)
	m["store.seals"] = float64(len(sealed))

	obsSums := sums
	if t.splitSpans != nil {
		obsSums = map[string]time.Duration{}
		for _, s := range t.splitSpans {
			obsSums[s.Name] += s.dur()
		}
	}
	if b := t.res.appendedBatches; b > 0 {
		m["query.standing_on_mutation_us_per_batch"] = us(obsSums["query.standing_on_mutation"]) / float64(b)
		m["correlate.on_mutation_us_per_batch"] = us(obsSums["correlate.on_mutation"]) / float64(b)
	}
	m["store.scan_ms_p50"] = quantile(durs["store.scan"], 0.5)
	m["store.scan_columns_ms_p50"] = quantile(durs["store.scan_columns"], 0.5)
	m["query.select_self_ms_p50"] = quantile(append(selfMs["query.select"], selfMs["shard.select"]...), 0.5)
	m["query.aggregate_self_ms_p50"] = quantile(append(selfMs["query.aggregate"], selfMs["shard.aggregate"]...), 0.5)
	if aggs > 0 {
		m["query.cache_hit_frac"] = aggHits / aggs
	}
	m["correlate.predict_ms_p50"] = quantile(durs["correlate.predict"], 0.5)
	m["shard.append_ms_p50"] = quantile(durs["shard.append"], 0.5)
	m["shard.aggregate_ms_p50"] = quantile(durs["shard.aggregate"], 0.5)
	m["shard.select_ms_p50"] = quantile(durs["shard.select"], 0.5)
	var total, top int
	for _, k := range t.res.perShard {
		total += k
		top = max(top, k)
	}
	if total > 0 {
		m["shard.max_shard_share"] = float64(top) / float64(total)
	}

	var scanned, matched, segs, pruned, reads, partial, ingests, rejected float64
	for _, s := range samples {
		switch {
		case s.class == classIngest:
			ingests++
			if s.status == 429 {
				rejected++
			}
		case s.hasStats:
			reads++
			scanned += float64(s.stats.RecordsScanned)
			matched += float64(s.stats.Matched)
			segs += float64(s.stats.Segments)
			pruned += float64(s.stats.SegmentsPruned)
			if s.partial {
				partial++
			}
		}
	}
	if matched > 0 {
		m["store.records_scanned_per_result"] = scanned / matched
	}
	if segs > 0 {
		m["store.segments_pruned_frac"] = pruned / segs
	}
	if reads > 0 {
		m["shard.partial_frac"] = partial / reads
	}
	if ingests > 0 {
		m["shard.rejected_frac"] = rejected / ingests
	}

	for _, c := range classes {
		if in := durs["serve."+c]; len(in) > 0 && e2e[c+"_p50_ms"] > 0 {
			m["serve.residual_"+c+"_ms_p50"] = e2e[c+"_p50_ms"] - quantile(in, 0.5)
		}
	}
	m["bench.late_p99_ms"] = lateP99(p, samples)
	if t.untraced > 0 {
		m["bench.tracing_overhead_frac"] = float64(t.res.elapsed) / float64(t.untraced)
	}
	for _, r := range layerTable(t.spans) {
		m["self_frac."+r.name] = r.selfShare
	}
	return m
}

// printMetrics writes one "name = value unit" line per metric.
func printMetrics(w io.Writer, defs []metricDef, m map[string]float64, n map[string]int) {
	for _, d := range defs {
		note := ""
		for _, c := range classes {
			if len(d.name) > len(c) && d.name[:len(c)+1] == c+"_" && d.name[len(d.name)-3:] == "_ms" {
				note = fmt.Sprintf("  (n=%d)", n[c])
			}
		}
		fmt.Fprintf(w, "  %-44s %14.4f %s%s\n", d.name, m[d.name], d.unit, note)
	}
}

// printKinds prints open-loop latency by read template, the breakdown
// behind the per-class figures.
func printKinds(w io.Writer, p *plan, samples []sample) {
	lat := map[string][]float64{}
	for _, s := range samples {
		if !p.w.phases[s.phase].open {
			continue
		}
		k := string(readKind(s.class))
		if s.class != classIngest {
			k = string(p.reads[s.item].kind)
		}
		lat[k] = append(lat[k], ms(s.latency()))
	}
	fmt.Fprintln(w, "open-loop latency by request kind (ms):")
	for _, k := range sortedKeys(lat) {
		xs := lat[k]
		fmt.Fprintf(w, "  %-12s n=%-5d p50=%-10.3f p90=%-10.3f max=%.3f\n", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 1))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
