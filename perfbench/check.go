package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

// local is the in-process twin of explaind: the same specs trained with
// the same seed, so its artifacts, digests and attributions must equal
// the server's bit for bit.
type local struct {
	reg   *registry.Registry
	srv   *serve.Server
	pipes map[string]*core.Pipeline
	specs map[string]registry.Spec
}

// explaindSeed is explaind's default -seed, which the benchmark keeps.
const explaindSeed = 1

// cacheMB is explaind's default -cache-mb.
const cacheMB = 256

func newLocal(specs []string) (*local, error) {
	reg := registry.New()
	reg.UseExplainCache(xcache.New(xcache.Config{MaxBytes: cacheMB << 20}))
	l := &local{reg: reg, pipes: map[string]*core.Pipeline{}, specs: map[string]registry.Spec{}}
	for _, s := range specs {
		sp, err := registry.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		sp.Seed = explaindSeed
		p, err := reg.BuildPipeline(sp)
		if err != nil {
			return nil, err
		}
		if _, err := reg.AddReady(sp, p, time.Now()); err != nil {
			return nil, err
		}
		l.pipes[sp.Name], l.specs[sp.Name] = p, sp
	}
	l.srv = serve.NewServer(reg)
	return l, nil
}

// retrainWindows replays the ingest bodies through an extractor set up
// like the server's feed attachment and returns the datasets the first n
// retrains train on.
func retrainWindows(bodies [][][]byte, n int) ([]*dataset.Dataset, error) {
	spec := core.WebScenarioSpec().WithDefaults()
	ext := telemetry.NewExtractor(telemetry.TargetBottleneckUtil, spec.SLO.MaxLatencyMs, spec.GroupNames())
	ext.MaxRows = windowRows
	var out []*dataset.Dataset
	for k := 0; k <= n && k < len(bodies); k++ {
		for _, body := range bodies[k] {
			var ir struct {
				Records []telemetry.Record `json:"records"`
			}
			if err := json.Unmarshal(body, &ir); err != nil {
				return nil, err
			}
			for _, rec := range ir.Records {
				// feed.Ingest derives a zero hour of day from the time.
				if rec.HourOfDay == 0 && rec.TimeSec != 0 {
					rec.HourOfDay = math.Mod(rec.TimeSec/3600, 24)
				}
				ext.Push(rec)
			}
		}
		if k > 0 {
			out = append(out, ext.Dataset().Tail(0))
		}
	}
	return out, nil
}

// retrainPipeline trains what the server's retrain job trains on ds.
func (l *local) retrainPipeline(model string, ds *dataset.Dataset) (*core.Pipeline, error) {
	kind, err := registry.ModelKindFor(l.specs[model].Model)
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(kind, ds, explaindSeed)
}

// ─── reply checks ───────────────────────────────────────────────────────

type contribution struct {
	Feature string  `json:"feature"`
	Phi     float64 `json:"phi"`
}

type explainReply struct {
	Prediction    float64        `json:"prediction"`
	Base          float64        `json:"base"`
	Method        string         `json:"method"`
	Contributions []contribution `json:"contributions"`
}

type batchTally struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Coalesced int `json:"coalesced"`
}

type batchReply struct {
	Count        int            `json:"count"`
	Failed       int            `json:"failed"`
	Explanations []explainReply `json:"explanations"`
	Cache        *batchTally    `json:"cache"`
}

func (o *op) fresh() int {
	n := 0
	for _, h := range o.hot {
		if h < 0 {
			n++
		}
	}
	return n
}

// checkReply validates one reply: status 200 and the X-Cache outcome.
// Hot instances were cached before timing and must hit; fresh instances
// are unique and must miss.
func checkReply(r *result) error {
	o := r.op
	if r.err != nil {
		return fmt.Errorf("%s %s: %w", o.kind, o.model, r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", o.kind, o.model, r.status, bytes.TrimSpace(r.body))
	}
	fresh := o.fresh()
	switch o.kind {
	case opPredict:
		var pr struct {
			Prediction *float64 `json:"prediction"`
		}
		if err := json.Unmarshal(r.body, &pr); err != nil || pr.Prediction == nil {
			return fmt.Errorf("predict %s: bad reply %q", o.model, r.body)
		}
		if r.cache != "" {
			return fmt.Errorf("predict %s: tagged X-Cache %q", o.model, r.cache)
		}
	case opExplain:
		want := "miss"
		if fresh == 0 {
			want = "hit"
		}
		if r.cache != want {
			return fmt.Errorf("explain %s (fresh %d): X-Cache %q, want %q", o.model, fresh, r.cache, want)
		}
	case opBatch:
		var br batchReply
		if err := json.Unmarshal(r.body, &br); err != nil {
			return fmt.Errorf("batch %s: %w", o.model, err)
		}
		if br.Count != len(o.xs) || len(br.Explanations) != len(o.xs) || br.Failed != 0 || br.Cache == nil {
			return fmt.Errorf("batch %s: count %d failed %d cache %v", o.model, br.Count, br.Failed, br.Cache)
		}
		t := *br.Cache
		if t.Hits != len(o.xs)-fresh || t.Misses != fresh || t.Coalesced != 0 {
			return fmt.Errorf("batch %s: tally %+v for %d fresh of %d", o.model, t, fresh, len(o.xs))
		}
		want := "hit"
		if t.Misses > 0 {
			want = "miss"
		}
		if r.cache != want {
			return fmt.Errorf("batch %s: X-Cache %q for tally %+v", o.model, r.cache, t)
		}
	}
	return nil
}

// sameTopK checks that a reply carries exactly the in-process
// attribution: prediction, base and the top-k contributions, bit for bit.
func sameTopK(rep explainReply, attr xai.Attribution, names []string) error {
	if math.Float64bits(rep.Prediction) != math.Float64bits(attr.Value) ||
		math.Float64bits(rep.Base) != math.Float64bits(attr.Base) {
		return fmt.Errorf("prediction/base %v/%v, in-process %v/%v", rep.Prediction, rep.Base, attr.Value, attr.Base)
	}
	top := attr.TopK(5)
	if len(rep.Contributions) != len(top) {
		return fmt.Errorf("%d contributions, in-process top-k has %d", len(rep.Contributions), len(top))
	}
	for i, j := range top {
		c := rep.Contributions[i]
		if c.Feature != names[j] || math.Float64bits(c.Phi) != math.Float64bits(attr.Phi[j]) {
			return fmt.Errorf("contribution %d: %s=%v, in-process %s=%v", i, c.Feature, c.Phi, names[j], attr.Phi[j])
		}
	}
	return nil
}

// additivityTol bounds |base + Σφ − prediction| for the efficiency-axiom
// methods, relative to the prediction's magnitude.
const additivityTol = 1e-6

// explainLocal computes the default-method attribution of x in process,
// bypassing the result cache, and checks its additivity.
func explainLocal(p *core.Pipeline, x []float64) (xai.Attribution, error) {
	attr, method, _, err := p.ExplainCached(context.Background(), "", xai.Options{}, x, true)
	if err != nil {
		return attr, err
	}
	if method == "treeshap" || method == "kernelshap" {
		if e := attr.AdditivityError(); e > additivityTol*(1+math.Abs(attr.Value)) {
			return attr, fmt.Errorf("%s additivity error %g", method, e)
		}
	}
	return attr, nil
}

// checkContent compares a sampled reply with the in-process twin p.
func checkContent(r *result, p *core.Pipeline) error {
	o := r.op
	names := p.Train.Names
	switch o.kind {
	case opPredict:
		var pr struct {
			Prediction float64 `json:"prediction"`
		}
		if err := json.Unmarshal(r.body, &pr); err != nil {
			return err
		}
		if want := p.Model.Predict(o.xs[0]); math.Float64bits(pr.Prediction) != math.Float64bits(want) {
			return fmt.Errorf("predict %s: %v, in-process %v", o.model, pr.Prediction, want)
		}
	case opExplain:
		var rep explainReply
		if err := json.Unmarshal(r.body, &rep); err != nil {
			return err
		}
		attr, err := explainLocal(p, o.xs[0])
		if err == nil {
			err = sameTopK(rep, attr, names)
		}
		if err != nil {
			return fmt.Errorf("explain %s: %w", o.model, err)
		}
	case opBatch:
		var br batchReply
		if err := json.Unmarshal(r.body, &br); err != nil {
			return err
		}
		for i, x := range o.xs {
			attr, err := explainLocal(p, x)
			if err == nil {
				err = sameTopK(br.Explanations[i], attr, names)
			}
			if err != nil {
				return fmt.Errorf("batch %s instance %d: %w", o.model, i, err)
			}
		}
	}
	return nil
}

// checkBatchPredict sends each instance as a single predict and all of
// them as one batch predict, and checks the two agree bit for bit.
func checkBatchPredict(c *http.Client, base, model string, xs [][]float64) error {
	var br struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := postJSON(c, base+"/v1/models/"+model+"/predict", explainBody{Instances: xs}, &br); err != nil {
		return err
	}
	if len(br.Predictions) != len(xs) {
		return fmt.Errorf("batch predict %s: %d predictions for %d instances", model, len(br.Predictions), len(xs))
	}
	for i, x := range xs {
		var pr struct {
			Prediction float64 `json:"prediction"`
		}
		if err := postJSON(c, base+"/v1/models/"+model+"/predict", explainBody{Features: x}, &pr); err != nil {
			return err
		}
		if math.Float64bits(pr.Prediction) != math.Float64bits(br.Predictions[i]) {
			return fmt.Errorf("predict %s instance %d: single %v, batch %v", model, i, pr.Prediction, br.Predictions[i])
		}
	}
	return nil
}

// sample returns up to n seeded picks from idx.
func sample(rng *rand.Rand, idx []int, n int) []int {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx[:min(n, len(idx))]
}

// failures records failed checks: each counts as one failed operation.
type failures struct {
	n     int
	notes []string
}

func (f *failures) add(err error) {
	if err == nil {
		return
	}
	f.n++
	if len(f.notes) < 20 {
		f.notes = append(f.notes, err.Error())
	}
}

func (f *failures) String() string { return strings.Join(f.notes, "\n  ") }
