// Command perfbench is the repository's end-to-end benchmark. It builds
// `logstudy`, starts `logstudy serve` as a subprocess on a store the
// run builds, drives it over HTTP with seeded traffic on at most two
// connections, checks every answer, and prints one JSON result line.
// With --trace 1 it also replays the same requests in-process against
// the layers' public calls and reports per-layer figures.
//
// Run it from the repository root (see perfbench/README.md):
//
//	bash perfbench/run.sh --workload query-spirit --seed 1 --seconds 28 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one run; past it the watchdog kills serve and the
// run fails without a result.
const runBudget = 170 * time.Second

// lateLimit is the generator delay past which a run is invalid: the
// schedule, not the server, would then set the latencies.
const lateLimit = 25 * time.Millisecond

// setupReps is how many times a measured run sets its store up; setup_s
// is their median and the last one is measured.
const setupReps = 3

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 28, "length of the measured phases, in seconds")
	traceOn := flag.Int("trace", 0, "1: replay the requests in-process with spans and report per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}

	// Every exit path reaps serve: the watchdog and signal handler kill
	// outright, orderly paths stop gracefully, and this defer catches
	// panics.
	defer killChildren()
	watchdog := time.AfterFunc(runBudget, func() {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; serve killed\n", runBudget)
		os.Exit(1)
	})
	defer watchdog.Stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: %v; serve killed\n", sig)
		os.Exit(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	buildDir := filepath.Join(root, ".bench_build")
	bin, err := buildLogstudy(ctx, root, buildDir)
	if err != nil {
		return fail(err)
	}
	p, err := buildPlan(w, *seed, benchScale, *seconds)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d: inputs fingerprint %016x (%d preload + %d stream batches, %d read URLs)\n",
		w.name, *seed, *seconds, *traceOn, p.fingerprint, len(p.preload), len(p.batches), len(p.reads))

	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	r, err := execute(ctx, bin, runDir, p, *traceOn == 1)
	if err != nil {
		return fail(err)
	}
	if late := time.Duration(r.layer["bench.late_p99_ms"] * float64(time.Millisecond)); late > lateLimit {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: generator sent open-loop requests up to %v late (p99), limit %v\n", late, lateLimit)
		return 3
	}

	fmt.Println("end-to-end:")
	printMetrics(os.Stdout, append(append([]metricDef(nil), endToEnd...), printedOnly...), r.e2e, r.n)
	defs := endToEnd
	metrics := r.e2e
	if *traceOn == 1 {
		printLayerTable(os.Stdout, w.name, layerTable(r.trace.spans))
		fmt.Println("per-layer:")
		printMetrics(os.Stdout, perLayer(), r.layer, nil)
		defs, metrics = perLayer(), r.layer
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, r.trace.spans); err != nil {
			return fail(err)
		}
		fmt.Printf("spans: %s (%d)\n", path, len(r.trace.spans))
	}
	printKinds(os.Stdout, p, r.samples)
	for _, msg := range r.wrong {
		fmt.Println("WRONG:", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// buildLogstudy compiles the program under test from the checkout.
func buildLogstudy(ctx context.Context, root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "logstudy")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/logstudy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build logstudy: %v\n%s", err, out)
	}
	return bin, nil
}

// result is one run's outcome.
type result struct {
	e2e       map[string]float64
	n         map[string]int
	layer     map[string]float64
	trace     traceOut
	attempted int
	failed    int
	wrong     []string
	samples   []sample
}

// execute sets the store up, runs the phases, verifies, and (traced)
// replays in-process.
func execute(ctx context.Context, bin, runDir string, p *plan, traced bool) (*result, error) {
	w := p.w
	client := newClient()
	defer client.CloseIdleConnections()
	var facts runFacts
	var preloadFile string
	if w.preload == "build-store" {
		preloadFile = filepath.Join(runDir, "preload.log")
		if err := writeBatches(preloadFile, p.preload); err != nil {
			return nil, err
		}
	}
	reps := setupReps
	if traced {
		reps = 1 // set-up time is not reported by a traced run
	}
	var srv *server
	var dir, snapshot string
	preloaded := 0
	for rep := 0; rep < reps; rep++ {
		dir = filepath.Join(runDir, fmt.Sprintf("store-%d", rep))
		start := time.Now()
		var err error
		srv, preloaded, err = setup(ctx, bin, dir, preloadFile, p, client)
		if err != nil {
			return nil, err
		}
		facts.setup = append(facts.setup, time.Since(start))
		if rep < reps-1 {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up rep %d: %w", rep, err)
			}
			os.RemoveAll(dir)
		}
	}
	if traced {
		snapshot = filepath.Join(runDir, "snapshot")
		if err := copyDir(dir, snapshot); err != nil {
			return nil, err
		}
	}
	d := &loader{client: client, base: srv.base, plan: p}
	for _, it := range p.hot {
		if _, err := d.get(it.url); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	var samples []sample
	var ingestCur, readCur cursor
	for pi, ph := range w.phases {
		length := time.Duration(ph.share * float64(p.seconds) * float64(time.Second))
		facts.phaseLen = append(facts.phaseLen, length)
		samples = append(samples, d.runPhase(ctx, pi, length, &ingestCur, &readCur)...)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	r := &result{samples: samples}
	staticReads(p, samples)

	// Verification sample: fetched while nothing mutates the store.
	var checks []verified
	for _, it := range p.verify {
		body, err := d.get(it.url)
		if err != nil {
			r.wrong = append(r.wrong, err.Error())
			continue
		}
		checks = append(checks, verified{it, body})
	}
	var err error
	if facts.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("graceful stop: %w", err)
	}
	if facts.storeBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}

	// Correctness gate: ingest replies against the in-process pipeline,
	// the reopened total against every acknowledged append, and the
	// sampled reads byte-for-byte against the in-process engine.
	if err := checkIngestReplies(w.sys, p, samples); err != nil {
		return nil, err
	}
	acked := srv.entries + preloaded
	for _, s := range samples {
		if s.ok() && s.class == classIngest {
			acked += s.ingest.Appended
		}
	}
	ref, err := reopen(dir, w.shards)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	facts.storeTotal = ref.total()
	if facts.storeTotal != acked {
		r.wrong = append(r.wrong, fmt.Sprintf("reopened store holds %d entries, acknowledged %d", facts.storeTotal, acked))
		facts.failedExtra++
	}
	for _, v := range checks {
		if err := compareAnswer(ctx, ref, v); err != nil {
			r.wrong = append(r.wrong, err.Error())
			facts.failedExtra++
		}
	}
	if err := ref.close(); err != nil {
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	for _, s := range samples {
		if s.err != "" && s.status == 200 {
			r.wrong = append(r.wrong, s.err)
		}
	}
	facts.failedExtra += len(p.verify) - len(checks)
	facts.attempted = len(samples) + len(p.verify) + 1
	r.attempted = facts.attempted
	r.e2e, r.n, r.failed = e2eMetrics(p, samples, facts)
	r.layer = map[string]float64{"bench.late_p99_ms": lateP99(p, samples)}
	if !traced {
		return r, nil
	}
	if r.trace, err = tracedRun(runDir, snapshot, p); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	r.layer = layerMetrics(p, r.trace, samples, r.e2e)
	return r, nil
}

// setup builds the workload's store and starts serve on it: the span
// setup_s measures.
func setup(ctx context.Context, bin, dir, preloadFile string, p *plan, client *http.Client) (*server, int, error) {
	w := p.w
	var args []string
	switch w.preload {
	case "build-store":
		if err := runTool(ctx, bin, "build-store", "-dir", dir, "-in", preloadFile, "-system", w.sys.ShortName()); err != nil {
			return nil, 0, err
		}
		args = []string{"-dir", dir}
	default:
		args = []string{"-dir", dir, "-system", w.sys.ShortName()}
		if w.shards > 0 {
			args = append(args, "-shards", fmt.Sprint(w.shards))
		}
	}
	srv, err := startServe(ctx, bin, args, client)
	if err != nil {
		return nil, 0, err
	}
	if w.preload != "http" {
		return srv, 0, nil
	}
	d := &loader{client: client, base: srv.base, plan: p}
	n, err := d.preloadHTTP(ctx)
	if err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, n, nil
}

// staticReads marks aggregate answers that changed between repeats of
// one URL while nothing was ingested (read-only phases).
func staticReads(p *plan, samples []sample) {
	first := map[string]string{}
	for i := range samples {
		s := &samples[i]
		if s.class != classAggregate || !s.ok() || phaseIngests(p.w.phases[s.phase]) || s.phase > firstIngestPhase(p) {
			continue
		}
		u := p.reads[s.item].url
		if prev, seen := first[u]; !seen {
			first[u] = s.aggHash
		} else if prev != s.aggHash {
			s.err = "aggregate answer changed between repeats on an unchanged store: " + u
		}
	}
}

func phaseIngests(ph phase) bool {
	_, ok := ph.stream(streamIngest)
	return ok
}

// firstIngestPhase is the index of the first phase that ingests (past
// the last phase when none does).
func firstIngestPhase(p *plan) int {
	for i, ph := range p.w.phases {
		if phaseIngests(ph) {
			return i
		}
	}
	return len(p.w.phases)
}

func writeBatches(path string, batches [][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
