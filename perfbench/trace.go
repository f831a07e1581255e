package main

// The traced run replays a seeded sample of the timed requests through
// the in-process twin, one layer call at a time, and records a span
// around each call. A layer's self time is its span minus its children's
// spans. Only the benchmark's own code is instrumented: a child layer is
// timed in a separate call made in the same cache state as its parent,
// so "span minus child span" compares like with like.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/mat"
	"nfvxai/internal/ml"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

type span struct {
	Req int    `json:"req"`
	Op  string `json:"op"`
	// Warm marks a request whose every instance was served from the
	// cache, so its explain below the handler is a lookup.
	Warm   bool   `json:"warm,omitempty"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	warm  bool // the request being recorded is warm
}

func (t *tracer) add(req int, opName, name, parent string, start time.Time, d time.Duration) {
	t.spans = append(t.spans, span{Req: req, Op: opName, Warm: t.warm, Name: name, Parent: parent,
		Start: int64(start.Sub(t.t0)), Dur: int64(d)})
}

// timedHandler records how long the wrapped handler took on the last
// request; the replay sends one request at a time.
type timedHandler struct {
	h    http.Handler
	last atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := time.Now()
	t.h.ServeHTTP(w, r)
	t.last.Store(int64(time.Since(s)))
}

// replayer replays requests against the twin's serve.Server over
// loopback HTTP and against the layers below it directly.
type replayer struct {
	loc  *local
	tr   *tracer
	th   *timedHandler
	hs   *http.Server
	done chan struct{}
	base string
	c    *http.Client
	refs map[string]xai.Attribution // reference attribution per cache key
	gate chan struct{}
	fail *failures
}

func newReplayer(loc *local, fail *failures) (*replayer, error) {
	// Batch misses run one at a time in the replay, so a batch's child
	// spans nest inside its parent instead of overlapping.
	loc.srv.BatchWorkers = 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		loc:  loc,
		tr:   &tracer{t0: time.Now()},
		th:   &timedHandler{h: loc.srv},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		c:    newClient(1),
		refs: map[string]xai.Attribution{},
		gate: make(chan struct{}, 1),
		fail: fail,
	}
	rp.hs = &http.Server{Handler: rp.th}
	go func() {
		defer close(rp.done)
		if err := rp.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: replay server:", err)
		}
	}()
	return rp, nil
}

func (rp *replayer) close() {
	_ = rp.hs.Shutdown(context.Background())
	<-rp.done
	rp.c.CloseIdleConnections()
}

func cacheKey(p *core.Pipeline, x []float64) xcache.Key {
	method, opts := p.NormalizeOptions("", xai.Options{})
	return xcache.Key{Digest: p.ContentDigest(), Method: method, Opts: opts.Key(), Instance: xcache.InstanceHash(x)}
}

// prime gives p a fresh result cache holding exactly the instances of o
// that the timed request found cached: the replay then sees the same
// hits and misses the timed request saw.
func (rp *replayer) prime(p *core.Pipeline, o *op, warm []bool) error {
	c := xcache.New(xcache.Config{MaxBytes: cacheMB << 20})
	for i, x := range o.xs {
		if !warm[i] {
			continue
		}
		k := cacheKey(p, x)
		a, ok := rp.refs[k.String()]
		if !ok {
			var err error
			if a, err = explainLocal(p, x); err != nil {
				return err
			}
			rp.refs[k.String()] = a
		}
		c.Put(k, a)
	}
	p.ResultCache = c
	return nil
}

// warmOf says which instances of a timed request were served from the
// cache: for a single explain its X-Cache outcome; for a batch, whose
// reply tallies but does not itemize, its hot instances.
func warmOf(r *result) []bool {
	w := make([]bool, len(r.op.xs))
	for i, h := range r.op.hot {
		switch r.op.kind {
		case opExplain:
			w[i] = r.cache == "hit" || r.cache == "coalesced"
		case opBatch:
			w[i] = h >= 0
		}
	}
	return w
}

// replayReps is how many times the replay repeats each layer call, in
// the same cache state; the fastest run is the span. Timing the layers of
// one request in separate calls makes a parent's self time the small
// difference of two long timings, and the minimum damps their noise.
const replayReps = 3

// fastest primes p's cache and runs fn replayReps times, returning the
// start and duration of the fastest run.
func (rp *replayer) fastest(p *core.Pipeline, o *op, warm []bool, fn func() error) (time.Time, time.Duration, error) {
	var start time.Time
	best := time.Duration(math.MaxInt64)
	for i := 0; i < replayReps; i++ {
		if err := rp.prime(p, o, warm); err != nil {
			return start, 0, err
		}
		s := time.Now()
		if err := fn(); err != nil {
			return start, 0, err
		}
		if d := time.Since(s); d < best {
			start, best = s, d
		}
	}
	return start, best, nil
}

// replay runs one sampled request through every layer on pipeline p;
// its spans are labelled name.
func (rp *replayer) replay(req int, name string, r *result, p *core.Pipeline, kind string) error {
	o, tr := r.op, rp.tr
	warm := warmOf(r)
	tr.warm = !slices.Contains(warm, false)
	var rep reply
	var s time.Time
	client, handler := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < replayReps; i++ {
		if err := rp.prime(p, o, warm); err != nil {
			return err
		}
		s0 := time.Now()
		r1, err := post(rp.c, rp.base+o.path(), o.body)
		d := time.Since(s0)
		if err != nil {
			return err
		}
		if r1.status != http.StatusOK {
			return fmt.Errorf("replay %s: status %d", name, r1.status)
		}
		if d < client {
			s, client, rep, handler = s0, d, r1, time.Duration(rp.th.last.Load())
		}
	}
	tr.add(req, name, "client", "", s, client)
	tr.add(req, name, "serve.handler", "client", s, handler)
	if o.kind == opExplain {
		want := "miss"
		if warm[0] {
			want = "hit"
		}
		if rep.cache != want {
			return fmt.Errorf("replay of a timed %q explain saw X-Cache %q", r.cache, rep.cache)
		}
	}
	span := func(layer, parent string, fn func() error) error {
		s, d, err := rp.fastest(p, o, warm, fn)
		if err == nil {
			tr.add(req, name, layer, parent, s, d)
		}
		return err
	}
	if o.kind == opPredict {
		return span("ml.predict", "serve.handler", func() error { p.Model.Predict(o.xs[0]); return nil })
	}
	var e xai.Explainer
	var method string
	if err := span("core.dispatch", "serve.handler", func() (err error) {
		e, method, err = p.ExplainerFor("", xai.Options{})
		return err
	}); err != nil {
		return err
	}
	ctx := context.Background()
	if err := span("core.explain", "serve.handler", func() error {
		if o.kind == opBatch {
			_, errs, _ := p.ExplainBatchWith(ctx, e, method, xai.Options{}, o.xs, rp.gate, false)
			return errors.Join(errs...)
		}
		_, _, err := p.ExplainWith(ctx, e, method, xai.Options{}, o.xs[0], false)
		return err
	}); err != nil {
		return err
	}
	var err error
	for i, x := range o.xs {
		if warm[i] {
			k := cacheKey(p, x)
			err = span("xcache.get", "core.explain", func() error { p.ResultCache.Get(k); return nil })
		} else {
			err = span("xai."+method+"."+kind, "core.explain", func() error { _, err := e.Explain(ctx, x); return err })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ─── aggregation ────────────────────────────────────────────────────────

// selfTimes returns each span's self time: its duration minus those of
// its direct children in the same request.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	idx := map[[2]any]int{}
	for i, s := range spans {
		self[i] = float64(s.Dur)
		idx[[2]any{s.Req, s.Name}] = i // child spans name their parent layer, unique per request
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		if pi, ok := idx[[2]any{s.Req, s.Parent}]; ok {
			self[pi] -= float64(s.Dur)
		}
	}
	return self
}

// layerShares sums self time per layer over the spans of ops whose kind
// passes keep, and returns it with the total client time.
func layerShares(spans []span, keep func(span) bool) (map[string]float64, float64) {
	self := selfTimes(spans)
	sum := map[string]float64{}
	var total float64
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		layer := s.Name
		switch layer {
		case "client":
			layer = "serve.http"
			total += float64(s.Dur)
		case "serve.handler":
			layer = "serve.handler_self"
		case "core.explain":
			layer = "core.explain_self"
		}
		sum[layer] += self[i]
	}
	return sum, total
}

// layerMedian returns the median self time (ns) of the named layer's
// spans over ops passing keep, and how many there were.
func layerMedian(spans []span, name string, keep func(span) bool) (float64, int) {
	self := selfTimes(spans)
	var xs []float64
	for i, s := range spans {
		if s.Name == name && keep(s) {
			xs = append(xs, self[i])
		}
	}
	return median(xs), len(xs)
}

func anyOp(span) bool { return true }

// warmSingle keeps single-instance requests that never reach an
// explainer: there the serve layer's self time is not the small
// difference of two long, separately timed explains.
func warmSingle(s span) bool {
	return s.Op == opPredict.String() || (s.Warm && s.Op != opBatch.String())
}

// warmReplay labels the extra warm replays of kernel-miss's sample.
const warmReplay = "explain-warm"

func timedOps(s span) bool { return s.Op != warmReplay }

// shareTable renders the layer-share table of one workload.
func shareTable(workload string, spans []span) string {
	var b strings.Builder
	ops := map[string]int{}
	for _, s := range spans {
		if s.Name == "client" {
			ops[s.Op]++
		}
	}
	fmt.Fprintf(&b, "layer shares of %s (%d explain, %d predict, %d batch requests replayed)\n",
		workload, ops["explain"], ops["predict"], ops["batch"])
	sum, total := layerShares(spans, timedOps)
	layers := make([]string, 0, len(sum))
	for l := range sum {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return sum[layers[i]] > sum[layers[j]] })
	fmt.Fprintf(&b, "  %-24s %12s %8s\n", "layer", "self ms", "share")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-24s %12.3f %7.1f%%\n", l, sum[l]/1e6, 100*sum[l]/total)
	}
	fmt.Fprintf(&b, "  %-24s %12.3f %7.1f%%\n", "total (client)", total/1e6, 100.0)
	return b.String()
}

// xaiShare is the share of explain time (single and batch explains)
// spent in explainer self time.
func xaiShare(spans []span) float64 {
	sum, total := layerShares(spans, func(s span) bool { return s.Op != opPredict.String() && timedOps(s) })
	var x float64
	for l, v := range sum {
		if strings.HasPrefix(l, "xai.") {
			x += v
		}
	}
	if total == 0 {
		return 0
	}
	return x / total
}

// medianXaiShare is the median over replayed explain requests (single
// and batch) of the share of each request's time spent in xai.* spans.
func medianXaiShare(spans []span) float64 {
	client := map[int]float64{}
	xai := map[int]float64{}
	for _, s := range spans {
		if s.Op == opPredict.String() || !timedOps(s) {
			continue
		}
		switch {
		case s.Name == "client":
			client[s.Req] = float64(s.Dur)
		case strings.HasPrefix(s.Name, "xai."):
			xai[s.Req] += float64(s.Dur)
		}
	}
	var shares []float64
	for req, c := range client {
		shares = append(shares, xai[req]/c)
	}
	return median(shares)
}

// ─── single-layer measurements ──────────────────────────────────────────

// predictNsRow times ml.PredictBatchInto over rows and returns ns/row.
func predictNsRow(p *core.Pipeline, rows [][]float64) float64 {
	out := make([]float64, len(rows))
	ml.PredictBatchInto(p.Model, rows, out)
	d := timeMedian(25, func() { ml.PredictBatchInto(p.Model, rows, out) })
	return float64(d) / float64(len(rows))
}

// wlsMicros times mat.SolveWeightedRidgeInto at KernelSHAP's shape for
// a model with d features: one row per sampled coalition, d-1 columns
// of 0/±1 mask differences (the efficiency constraint eliminates one).
func wlsMicros(rng *rand.Rand, samples, d int) float64 {
	a := mat.NewDense(samples, d-1)
	b := make([]float64, samples)
	w := make([]float64, samples)
	for i := 0; i < samples; i++ {
		zd := float64(rng.Intn(2))
		for j := 0; j < d-1; j++ {
			a.Set(i, j, float64(rng.Intn(2))-zd)
		}
		b[i] = rng.NormFloat64()
		w[i] = 0.1 + rng.Float64()
	}
	dst := make([]float64, d-1)
	var err error
	d1 := timeMedian(50, func() { err = mat.SolveWeightedRidgeInto(a, b, w, 1e-9, dst) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wls:", err)
	}
	return us(d1)
}

// explainMillis times the default explainer on fresh instances directly.
func explainMillis(p *core.Pipeline, xs [][]float64) (float64, error) {
	e, _, err := p.ExplainerFor("", xai.Options{})
	if err != nil {
		return 0, err
	}
	var ds []float64
	for _, x := range xs {
		s := time.Now()
		if _, err := e.Explain(context.Background(), x); err != nil {
			return 0, err
		}
		ds = append(ds, ms(time.Since(s)))
	}
	return median(ds), nil
}

// ingestMillis times feed ingest of each block through an in-process
// ingest-only feed with model attached, as the server's ingest path
// does, and returns the median per block.
func ingestMillis(loc *local, model string, bodies [][][]byte) (float64, error) {
	do := func(method, path string, body any) error {
		b, _ := json.Marshal(body)
		req, _ := http.NewRequest(method, path, strings.NewReader(string(b)))
		w := httptest.NewRecorder()
		loc.srv.ServeHTTP(w, req)
		if w.Code/100 != 2 {
			return fmt.Errorf("%s %s: %d %s", method, path, w.Code, w.Body)
		}
		return nil
	}
	const name = "perfbench-trace"
	if err := do("POST", "/v1/feeds", map[string]any{"name": name, "scenario": "web", "simulate": false, "buffer": 4096}); err != nil {
		return 0, err
	}
	defer do("DELETE", "/v1/feeds/"+name, nil)
	if err := do("POST", "/v1/feeds/"+name+"/attach", map[string]any{"model": model, "max_rows": windowRows, "auto_retrain": false}); err != nil {
		return 0, err
	}
	f, err := loc.srv.Hub().Get(name)
	if err != nil {
		return 0, err
	}
	var ds []float64
	for _, block := range bodies {
		var recs []telemetry.Record
		for _, body := range block {
			var ir struct {
				Records []telemetry.Record `json:"records"`
			}
			if err := json.Unmarshal(body, &ir); err != nil {
				return 0, err
			}
			recs = append(recs, ir.Records...)
		}
		s := time.Now()
		for _, rec := range recs {
			if err := f.Ingest(rec); err != nil {
				return 0, err
			}
		}
		ds = append(ds, ms(time.Since(s)))
		// Let the monitor drain the block before the next one.
		time.Sleep(20 * time.Millisecond)
	}
	return median(ds), nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// traceSample is how many timed requests a traced run replays; on
// kernel-miss one in predictsPerExplain+1 is an explain.
var traceSample = map[string]int{"kernel-miss": 50, "tree-hot": 300}

// modelKind is the model segment of a registry name ("web/rf/util" → "rf").
func modelKind(name string) string {
	parts := strings.Split(name, "/")
	return parts[1]
}

// traceRun replays a seeded sample of the timed requests layer by layer,
// takes the single-layer measurements, and sets the per-layer metrics.
func (b *bench) traceRun(loc *local, pl *plan, res []result, cz0, cz1 cachez, retrainS []float64) error {
	w := b.w
	rp, err := newReplayer(loc, &b.fail)
	if err != nil {
		return err
	}
	defer rp.close()
	var idx []int
	for i := range res {
		if r := &res[i]; r.ok() && !r.bad {
			idx = append(idx, i)
		}
	}
	rng := rand.New(rand.NewSource(b.seed + 2))
	pick := sample(rng, idx, traceSample[w.name])
	sort.Ints(pick)
	for j, i := range pick {
		r := &res[i]
		if err := rp.replay(j, r.op.kind.String(), r, loc.pipes[r.op.model], modelKind(r.op.model)); err != nil {
			b.fail.add(fmt.Errorf("replay: %w", err))
		}
	}
	if _, n := layerMedian(rp.tr.spans, "client", warmSingle); n == 0 {
		// Every sampled request missed (kernel-miss): time the serve
		// layer on warm replays of the same explains instead.
		for j, i := range pick {
			if r := res[i]; r.op.kind == opExplain {
				r.cache = "hit"
				if err := rp.replay(len(pick)+j, warmReplay, &r, loc.pipes[r.op.model], modelKind(r.op.model)); err != nil {
					b.fail.add(fmt.Errorf("warm replay: %w", err))
				}
			}
		}
	}
	spans := rp.tr.spans

	v, _ := layerMedian(spans, "client", warmSingle)
	b.set("serve.http_ms", v/1e6, "ms")
	v, _ = layerMedian(spans, "serve.handler", warmSingle)
	b.set("serve.handler_self_ms", v/1e6, "ms")
	v, _ = layerMedian(spans, "core.dispatch", timedOps)
	b.set("core.dispatch_us", v/1e3, "us")

	// Layers the sample did not reach are timed directly.
	inst := map[string]*instances{}
	for name, p := range loc.pipes {
		inst[name] = newInstances(rng, p.Test.X, 0)
	}
	freshN := func(model string, n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = inst[model].fresh()
		}
		return xs
	}
	v, n := layerMedian(spans, "xcache.get", anyOp)
	if n == 0 {
		p := loc.pipes[rfModel]
		attr, err := explainLocal(p, p.Test.X[0])
		if err != nil {
			return err
		}
		c := xcache.New(xcache.Config{MaxBytes: cacheMB << 20})
		var keys []xcache.Key
		for _, x := range freshN(rfModel, 64) {
			k := cacheKey(p, x)
			c.Put(k, attr)
			keys = append(keys, k)
		}
		i := 0
		v = float64(timeMedian(len(keys), func() { c.Get(keys[i]); i++ }))
	}
	b.set("xcache.get_us", v/1e3, "us")
	for _, x := range []struct {
		metric, span, model string
		n                   int
	}{
		{"xai.kernelshap_ms.gbt", "xai.kernelshap.gbt", gbtModel, 3},
		{"xai.kernelshap_ms.mlp", "xai.kernelshap.mlp", mlpModel, 3},
		{"xai.treeshap_ms", "xai.treeshap.rf", rfModel, 20},
	} {
		v, n := layerMedian(spans, x.span, anyOp)
		v /= 1e6
		if n == 0 {
			if v, err = explainMillis(loc.pipes[x.model], freshN(x.model, x.n)); err != nil {
				return err
			}
		}
		b.set(x.metric, v, "ms")
	}
	for _, m := range []string{rfModel, gbtModel, mlpModel} {
		b.set("ml.predict_ns_row."+modelKind(m), predictNsRow(loc.pipes[m], freshN(m, 256)), "ns")
	}
	gbt := loc.pipes[gbtModel]
	b.set("mat.wls_us", wlsMicros(rng, gbt.ShapSampleBudget(), gbt.Train.NumFeatures()), "us")

	// Retrain layers, on the windows the first three retrains fit.
	rt, err := newRetrainer(nil, "", w.retrainModel, pl.records)
	if err != nil {
		return err
	}
	wins, err := retrainWindows(rt.bodies, 3)
	if err != nil {
		return err
	}
	var fits []float64
	var refit *core.Pipeline
	for _, win := range wins {
		s := time.Now()
		if refit, err = loc.retrainPipeline(w.retrainModel, win); err != nil {
			return err
		}
		fits = append(fits, time.Since(s).Seconds())
	}
	fit := median(fits)
	b.set("ml.fit_s", fit, "s")
	alt := []*core.Pipeline{refit, loc.pipes[w.retrainModel]}
	swaps := 0
	var serr error
	d := timeMedian(21, func() {
		if _, err := loc.reg.Swap(w.retrainModel, alt[swaps%2], time.Now()); err != nil {
			serr = err
		}
		swaps++
	})
	if serr != nil {
		return serr
	}
	b.set("registry.swap_us", us(d), "us")
	v, err = ingestMillis(loc, w.retrainModel, rt.bodies[1:4])
	if err != nil {
		return err
	}
	b.set("feed.ingest_ms", v, "ms")

	// Result-cache counters of explaind over the timed phase.
	dh := float64(cz1.Global.Hits - cz0.Global.Hits)
	dm := float64(cz1.Global.Misses - cz0.Global.Misses)
	dc := float64(cz1.Global.Coalesced - cz0.Global.Coalesced)
	hit := 0.0
	if dh+dm+dc > 0 {
		hit = dh / (dh + dm + dc)
	}
	b.set("xcache.hit_ratio", hit, "ratio")
	b.set("xcache.coalesced", dc, "count")
	b.set("xcache.evicted", float64(cz1.Global.Evicted-cz0.Global.Evicted), "count")

	table := shareTable(w.name, spans)
	xs := xaiShare(spans)
	switch w.name {
	case "kernel-miss":
		table += fmt.Sprintf("  check: xai.* self time is %.1f%% of explain time, expected most: %s\n",
			100*xs, yesNo(xs > 0.5))
	case "tree-hot":
		table += fmt.Sprintf("  check: xai.* self time is %.1f%% of explain time (%.1f%% of the median explain request), expected a minority: %s\n",
			100*xs, 100*medianXaiShare(spans), yesNo(xs < 0.5))
		table += fmt.Sprintf("  check: xcache.hit_ratio %.3f tracks repeat_share %.3f: %s\n",
			hit, b.acct.RepeatShare, yesNo(math.Abs(hit-b.acct.RepeatShare) <= 0.05))
	}
	if len(retrainS) > 0 {
		rs := median(retrainS)
		table += fmt.Sprintf("  check: ml.fit_s %.3f s is %.0f%% of retrain_s %.3f s, expected most: %s\n",
			fit, 100*fit/rs, rs, yesNo(fit > rs/2))
	}
	fmt.Fprint(os.Stderr, table)
	b.acct.LayerTable = table
	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", w.name, b.seed))
	if err := os.WriteFile(base+"-layers.txt", []byte(table), 0o644); err != nil {
		return err
	}
	return writeSpans(base+"-spans.jsonl", spans)
}

func yesNo(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "NOT confirmed"
}
