// Command perfbench is the repository's end-to-end benchmark. It boots a
// fresh explaind (default flags, so the 256 MiB result cache is on),
// drives it over loopback HTTP with one of two seeded workloads, checks
// every reply, and prints the metrics named in BENCHMARK.json as one JSON
// line. Run it from the repository root through its wrapper, which
// builds both programs first:
//
//	bash perfbench/run.sh --workload tree-hot --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the run also replays a seeded sample of its requests
// through an identically seeded in-process registry and server, layer by
// layer, and prints per-layer metrics instead, with a layer-share table
// on standard error. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nfvxai/internal/core"
)

// Seeds: results are reported on defaultSeed; heldOutSeed is kept out of
// tuning so a later claim can be checked on inputs nobody tuned for.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

const (
	// phaseChunks is how many chunks the timed phase runs in; the
	// probes run between them.
	phaseChunks = 3
	// stealBound marks a run invalid when, during its timed phase, the
	// hypervisor gave more than this share of the machine's CPU time to
	// other guests.
	stealBound = 0.03
)

// allSpecs are every model any workload serves; a traced run trains all
// of them in process for the single-layer measurements.
var allSpecs = []string{"nat:gbt:violation:1", "web:mlp:util:1", "web:rf:util:1"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type opCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// accounting is the record each run writes next to its result.
type accounting struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HeldOutSeed int64   `json:"held_out_seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Env         struct {
		Go            string   `json:"go"`
		GOMAXPROCS    int      `json:"gomaxprocs"`
		NProc         int      `json:"nproc"`
		CPU           string   `json:"cpu"`
		GitSHA        string   `json:"git_sha"`
		ExplaindFlags []string `json:"explaind_flags"`
	} `json:"env"`
	Ops         map[string]*opCount `json:"ops"`
	RepeatShare float64             `json:"repeat_share"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the timed phase; the run is Valid when
	// it is at most StealBound.
	StealShare float64 `json:"steal_share"`
	StealBound float64 `json:"steal_bound"`
	Valid      bool    `json:"valid"`
	// ServerCPUShare is explaind's CPU time over the timed phase as a
	// share of one core (2 = both cores of a 2-core box busy throughout).
	ServerCPUShare float64   `json:"server_cpu_share"`
	RetrainS       []float64 `json:"retrain_s"`
	// Latency quantiles in ms per op kind over the timed phase.
	LatencyMs  map[string][3]float64 `json:"latency_ms_p50_p90_p99"`
	Failures   []string              `json:"failures,omitempty"`
	Metrics    map[string]metric     `json:"metrics"`
	LayerTable string                `json:"layer_table,omitempty"`
}

type bench struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	bin     string
	out     string
	fail    failures
	acct    accounting
	metrics map[string]metric
	attempt int
}

func main() {
	var (
		name    = flag.String("workload", "tree-hot", "workload: kernel-miss | tree-hot")
		seed    = flag.Int64("seed", defaultSeed, "seed every generated input derives from")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 replays a sample through each layer and prints per-layer metrics")
		bin     = flag.String("explaind", ".bench_build/bin/explaind", "explaind binary under test")
		out     = flag.String("out", ".bench_build", "directory for logs, spans and run records")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, bin: *bin,
		out: filepath.Join(*out, "perfbench"), metrics: map[string]metric{}}
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   b.fail.n == 0,
		"attempted": max(b.attempt, 1),
		"failed":    b.fail.n,
		"metrics":   b.metrics,
	})
	fmt.Println(string(line))
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func (b *bench) run() error {
	w := b.w
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	b.initAccounting()

	// The in-process twin trains first, outside every timing; its test
	// rows seed the instances, exactly as explaind derives them.
	specs := w.specs
	if b.trace {
		specs = allSpecs
	}
	loc, err := newLocal(specs)
	if err != nil {
		return err
	}
	defer loc.srv.Close()
	rows := map[string][][]float64{}
	for name, p := range loc.pipes {
		rows[name] = p.Test.X
	}
	pl, err := w.makePlan(b.seed, rows)
	if err != nil {
		return err
	}

	// Set-up: the first boot serves the run; the rest are timed between
	// chunks of the phase (see probe).
	d, t, err := startDaemon(b.bin, filepath.Join(b.out, "explaind.log"), w.specs)
	if err != nil {
		return err
	}
	defer func() { d.stop() }()
	b.acct.Env.ExplaindFlags = d.args
	pr := &prober{setups: []float64{t.Seconds()}, c: newClient(1)}
	defer pr.c.CloseIdleConnections()
	// Retrains run on a model of their own, so that no swap changes what
	// the timed requests are answered by.
	if pr.rt, err = newRetrainer(pr.c, d.base, w.retrainModel, pl.records); err != nil {
		return err
	}
	if err := pr.rt.create(); err != nil {
		return err
	}
	if err := pr.rt.attach(); err != nil {
		return err
	}
	c := newClient(clients)
	defer c.CloseIdleConnections()

	ph, err := b.timedPhase(d, c, loc, pl, func(k int) { b.probe(pr, d, pl, k) })
	if err != nil {
		return err
	}
	res, probe, retrainS, setups := ph.res, pr.batches, pr.retrainS, pr.setups
	// Batch predict must equal single predict, bit for bit.
	for _, m := range sortedKeys(loc.pipesOf(w.specs)) {
		var xs [][]float64
		for _, r := range res {
			if o := r.op; o.model == m && o.kind != opBatch && len(xs) < batchSize {
				xs = append(xs, o.xs[0])
			}
		}
		b.attempt++
		b.fail.add(checkBatchPredict(c, d.base, m, xs))
	}
	d.stop()
	d = nil

	// Content checks: a seeded sample of replies must equal the
	// in-process twin's answers bit for bit.
	rng := rand.New(rand.NewSource(b.seed + 1))
	quota := map[opKind]int{opExplain: 8, opPredict: 16, opBatch: 2}
	if w.name == "kernel-miss" {
		quota[opExplain] = 6
		quota[opBatch] = 1 // sixteen KernelSHAP explains apiece
	}
	for _, rs := range [][]result{res, probe} {
		byKind := map[opKind][]int{}
		for i := range rs {
			if r := &rs[i]; !r.bad {
				byKind[r.op.kind] = append(byKind[r.op.kind], i)
			}
		}
		for _, k := range []opKind{opExplain, opPredict, opBatch} {
			for _, i := range sample(rng, byKind[k], quota[k]) {
				if err := checkContent(&rs[i], loc.pipes[rs[i].op.model]); err != nil {
					b.fail.add(err)
					rs[i].bad = true
				}
			}
		}
	}

	// Accounting.
	hotInst, allInst := 0, 0
	for _, r := range res {
		if r.op.kind == opPredict {
			continue
		}
		allInst += len(r.op.xs)
		hotInst += len(r.op.xs) - r.op.fresh()
	}
	if allInst > 0 {
		b.acct.RepeatShare = float64(hotInst) / float64(allInst)
	}
	count := func(prefix string, rs []result) {
		for _, r := range rs {
			k := prefix + r.op.kind.String()
			if b.acct.Ops[k] == nil {
				b.acct.Ops[k] = &opCount{}
			}
			oc := b.acct.Ops[k]
			oc.Sent++
			if r.ok() && !r.bad {
				oc.Succeeded++
			} else {
				oc.Failed++
			}
		}
	}
	count("", res)
	count("probe-", probe)
	b.acct.RetrainS = retrainS
	b.acct.Ops["retrain"] = &opCount{Sent: len(retrainS) + pr.retrainFailed, Succeeded: len(retrainS), Failed: pr.retrainFailed}
	lat := map[string][]float64{}
	for _, r := range res {
		if r.ok() {
			lat[r.op.kind.String()] = append(lat[r.op.kind.String()], ms(r.latency()))
		}
	}
	b.acct.LatencyMs = map[string][3]float64{}
	for k, xs := range lat {
		b.acct.LatencyMs[k] = [3]float64{quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99)}
	}

	if b.trace {
		if err := b.traceRun(loc, pl, res, ph.cz0, ph.cz1, retrainS); err != nil {
			return err
		}
	} else {
		b.endToEnd(res, probe, ph.elapsed, setups, retrainS)
	}
	return b.writeRecord()
}

// phase is the timed phase's outcome.
type phase struct {
	res      []result
	elapsed  time.Duration // summed over the chunks
	cz0, cz1 cachez        // explaind's /v1/cachez before and after
}

// prober times, between chunks of the phase, what the workload's mix
// does not exercise, on an otherwise idle server: retrains, batches (on
// kernel-miss) and further boots of explaind. Spreading them over the
// run averages out the host's slower and faster minutes, which a burst
// after the phase would catch whole.
type prober struct {
	c             *http.Client
	rt            *retrainer
	batches       []result
	retrainS      []float64
	retrainFailed int
	setups        []float64
}

// probe runs the k-th chunk's share of the probes.
func (b *bench) probe(pr *prober, d *daemon, pl *plan, k int) {
	runtime.GC()
	if !b.trace {
		per := len(pl.probeBatch) / phaseChunks
		rs := sendAll(pr.c, d.base, pl.probeBatch[k*per:(k+1)*per], 1)
		for i := range rs {
			if err := checkReply(&rs[i]); err != nil {
				b.fail.add(err)
				rs[i].bad = true
			}
		}
		b.attempt += len(rs)
		pr.batches = append(pr.batches, rs...)
	}
	for j := 0; j < probeRetrains/phaseChunks && pr.retrainFailed == 0; j++ {
		b.attempt++
		t, err := pr.rt.retrain(len(pr.retrainS) + 1)
		if err != nil {
			b.fail.add(fmt.Errorf("retrain probe: %w", err))
			pr.retrainFailed++
			break
		}
		pr.retrainS = append(pr.retrainS, t.Seconds())
	}
	if b.trace {
		return
	}
	// The extra boot serves nothing; the run's explaind idles meanwhile.
	e, t, err := startDaemon(b.bin, filepath.Join(b.out, "explaind-boot.log"), b.w.specs)
	if err != nil {
		b.fail.add(fmt.Errorf("set-up probe: %w", err))
		return
	}
	e.stop()
	pr.setups = append(pr.setups, t.Seconds())
}

// timedPhase warms a freshly booted explaind, runs the timed phase on it
// with the workload's closed-loop clients in phaseChunks chunks, calling
// gap after each, and checks every reply. Each reply counts as an
// attempted operation, each failed check as a failed one.
func (b *bench) timedPhase(d *daemon, c *http.Client, loc *local, pl *plan, gap func(k int)) (*phase, error) {
	w := b.w
	// Warm-up: explainers build lazily on first use, and the hot set is
	// cached before timing. Every warm-up instance is new, so each misses.
	fills := map[int][]byte{} // hot index → body of the miss that cached it
	for _, r := range sendAll(c, d.base, pl.warm, clients) {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up %s %s: %w", r.op.kind, r.op.model, r.err)
		}
		if !r.ok() || (r.op.kind == opExplain && r.cache != "miss") {
			return nil, fmt.Errorf("warm-up %s %s: status %d X-Cache %q", r.op.kind, r.op.model, r.status, r.cache)
		}
		if r.op.kind == opExplain && r.op.hot[0] >= 0 {
			fills[r.op.hot[0]] = r.body
		}
	}
	ph := &phase{}
	var err error
	if ph.cz0, err = getCachez(c, d.base); err != nil {
		return nil, err
	}
	for _, m := range sortedKeys(loc.pipesOf(w.specs)) {
		if got, want := ph.cz0.digest(m), loc.pipes[m].ContentDigest(); got != want {
			b.fail.add(fmt.Errorf("digest of %s: explaind %q, in-process %q", m, got, want))
		}
	}

	dur := time.Duration(b.seconds / phaseChunks * float64(time.Second))
	var cpu time.Duration
	var steal, ticks int64
	for k := 0; k < phaseChunks; k++ {
		runtime.GC() // the generator's own garbage is not the program's cost
		cpu0 := d.cpuTime()
		steal0, ticks0 := cpuTicks()
		res, elapsed := runClosed(c, d.base, pl.timed, clients, time.Now(), dur)
		steal1, ticks1 := cpuTicks()
		cpu += d.cpuTime() - cpu0
		steal, ticks = steal+steal1-steal0, ticks+ticks1-ticks0
		ph.res, ph.elapsed = append(ph.res, res...), ph.elapsed+elapsed
		gap(k)
	}
	// The traced run, the only reader of these counters, probes nothing
	// through the cache.
	if ph.cz1, err = getCachez(c, d.base); err != nil {
		return nil, err
	}
	a := &b.acct
	a.ServerCPUShare = cpu.Seconds() / ph.elapsed.Seconds()
	if ticks > 0 {
		a.StealShare = float64(steal) / float64(ticks)
	}
	a.Valid = a.StealShare <= stealBound

	b.attempt += len(ph.res)
	for i := range ph.res {
		r := &ph.res[i]
		if err := checkReply(r); err != nil {
			b.fail.add(err)
			r.bad = true
			continue
		}
		if r.op.kind != opExplain || r.op.hot[0] < 0 {
			continue
		}
		switch f, seen := fills[r.op.hot[0]]; {
		case r.cache == "miss" && !seen:
			fills[r.op.hot[0]] = r.body
		case r.cache == "hit" && seen && !bytes.Equal(f, r.body):
			b.fail.add(fmt.Errorf("explain %s: hit body differs from the miss that filled it", r.op.model))
			r.bad = true
		}
	}
	return ph, nil
}

// endToEnd computes the user-visible metrics of an untraced run.
func (b *bench) endToEnd(res, probe []result, elapsed time.Duration, setups, retrainS []float64) {
	lat := map[opKind][]float64{}
	explained, sloOK := 0, 0
	for _, r := range res {
		if !r.ok() || r.bad {
			continue
		}
		l := ms(r.latency())
		lat[r.op.kind] = append(lat[r.op.kind], l)
		if l > b.w.sloMs {
			continue
		}
		sloOK++
		if r.op.kind != opPredict {
			explained += len(r.op.xs)
		}
	}
	// kernel-miss sends no batches in its phase; its probe, sent one
	// batch at a time after the phase, measures them.
	for _, r := range probe {
		if r.ok() && !r.bad {
			lat[r.op.kind] = append(lat[r.op.kind], ms(r.latency()))
		}
	}
	b.set("setup_s", median(setups), "s")
	b.set("explain_p50_ms", quantile(lat[opExplain], 0.5), "ms")
	b.set("explain_p99_ms", quantile(lat[opExplain], 0.99), "ms")
	b.set("explain_rps", float64(explained)/elapsed.Seconds(), "1/s")
	b.set("predict_p99_ms", quantile(lat[opPredict], 0.99), "ms")
	b.set("batch_p99_ms", quantile(lat[opBatch], 0.99), "ms")
	b.set("slo_ok_ratio", float64(sloOK)/float64(max(len(res), 1)), "ratio")
	b.set("retrain_s", median(retrainS), "s")
}

func (l *local) pipesOf(specs []string) map[string]*core.Pipeline {
	out := map[string]*core.Pipeline{}
	for _, s := range specs {
		name := strings.Join(strings.Split(s, ":")[:3], "/")
		out[name] = l.pipes[name]
	}
	return out
}

func (b *bench) initAccounting() {
	a := &b.acct
	a.Workload, a.Seed, a.HeldOutSeed, a.Seconds, a.Trace = b.w.name, b.seed, heldOutSeed, b.seconds, b.trace
	a.Env.Go = runtime.Version()
	a.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	a.Env.NProc = runtime.NumCPU()
	a.Env.CPU = cpuModel()
	a.Env.GitSHA = gitSHA()
	a.Ops = map[string]*opCount{}
	a.StealBound = stealBound
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// writeRecord writes the run's accounting record and echoes it, with any
// failures, to standard error.
func (b *bench) writeRecord() error {
	a := &b.acct
	a.Failures = b.fail.notes
	a.Metrics = b.metrics
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d-trace%v.json", a.Workload, a.Seed, a.Trace))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: timed phase: steal %.1f%% (bound %.0f%%), server cpu %.2f, valid %v\n",
		100*a.StealShare, 100*stealBound, a.ServerCPUShare, a.Valid)
	if !a.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: INVALID run: the hypervisor took more CPU time than the bound\n")
	}
	if b.fail.n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed checks:\n  %s\n", b.fail.n, b.fail.String())
	}
	names := make([]string, 0, len(a.Ops))
	for k := range a.Ops {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		oc := a.Ops[k]
		fmt.Fprintf(os.Stderr, "perfbench: %-14s sent %6d ok %6d failed %d\n", k, oc.Sent, oc.Succeeded, oc.Failed)
	}
	for _, k := range sortedKeys(a.LatencyMs) {
		q := a.LatencyMs[k]
		fmt.Fprintf(os.Stderr, "perfbench: %-14s latency ms p50 %.3f p90 %.3f p99 %.3f\n", k, q[0], q[1], q[2])
	}
	fmt.Fprintf(os.Stderr, "perfbench: repeat_share %.3f; record %s\n", a.RepeatShare, path)
	return nil
}
