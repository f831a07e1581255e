package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
)

// opKind is the type of one read request.
type opKind int

const (
	opExplain opKind = iota // single-instance explain, default method
	opPredict               // single-instance predict
	opBatch                 // batchSize-instance explain, default method
)

var opNames = [...]string{"explain", "predict", "batch"}

func (k opKind) String() string { return opNames[k] }

// batchSize is the instance count of one batch explain.
const batchSize = 16

// op is one generated read request. The server receives only body.
type op struct {
	kind  opKind
	model string      // registry name, e.g. "web/rf/util"
	xs    [][]float64 // the instances; one for single-instance ops
	hot   []int       // hot-set index per instance, -1 for a fresh one
	body  []byte
}

func (o *op) path() string {
	if o.kind == opPredict {
		return "/v1/models/" + o.model + "/predict"
	}
	return "/v1/models/" + o.model + "/explain"
}

// workload fixes one traffic mix. Every number in it is part of the
// benchmark's definition: changing one re-baselines every result.
type workload struct {
	name string
	// specs are explaind's -model flags; the first trains synchronously.
	specs []string
	// sloMs is the latency limit behind slo_ok_ratio.
	sloMs float64
	// retrainModel is the model retrained from an ingest-only feed
	// after the timed phase.
	retrainModel string
}

const (
	gbtModel = "nat/gbt/violation"
	mlpModel = "web/mlp/util"
	rfModel  = "web/rf/util"
)

// workloads are the benchmark's traffic mixes; the why of each is in
// BENCHMARK.json.
var workloads = map[string]*workload{
	// Explainer-bound: every instance is fresh, so every lookup misses
	// and KernelSHAP's masked coalition evaluation and WLS solve dominate.
	"kernel-miss": {
		name:         "kernel-miss",
		specs:        []string{"nat:gbt:violation:1", "web:mlp:util:1"},
		sloMs:        350,
		retrainModel: mlpModel,
	},
	// Hit-path-bound: ~80% of instances repeat a warmed hot set, so HTTP,
	// serve and the result cache dominate and TreeSHAP runs only on misses.
	"tree-hot": {
		name:         "tree-hot",
		specs:        []string{"web:rf:util:1"},
		sloMs:        25,
		retrainModel: rfModel,
	},
}

// clients is the number of closed-loop clients, one connection each;
// with the generator they fit a 2-core machine.
const clients = 2

// Read-mix shape of tree-hot.
const (
	// mixBlockOps is the block tree-hot deals its op mix and fresh
	// share in.
	mixBlockOps  = 100
	shareExplain = 0.75
	sharePredict = 0.20 // the rest are batch explains
	freshProb    = 0.2  // share of instances that are fresh rather than hot
	batchFresh   = 3    // fresh instances per batch: batchSize×freshProb, rounded
	hotSetSize   = 256
	zipfS        = 1.1
	// gbtDeck is the block kernel-miss deals its model mix in: three of
	// every four explains go to the gbt model.
	gbtDeck = 4
	// predictsPerExplain is how many fresh instances a kernel-miss client
	// predicts before it explains the last of them.
	predictsPerExplain = 4
	// probeBatches is how many batches kernel-miss times between chunks
	// of its phase.
	probeBatches = 9
	// perturb scales the seeded noise added to a test row, per feature,
	// in units of that feature's standard deviation.
	perturb = 0.01
)

// Retrain shape: the feed keeps the newest windowRows examples
// (plus the extractor's 25% trim slack); each retrain first ingests
// blockRecords new records, so every fit sees a window of the same size.
// Successive blocks alternate between base load and a stepped-up load,
// so the window a retrain sees has really drifted.
const (
	windowRows   = 720
	blockRecords = windowRows / 4
	loadStep     = 1.8
	// probeRetrains is how many retrains each run times between chunks
	// of its phase, each on its own seeded window.
	probeRetrains = 9
)

// instances draws seeded instances for one model: fresh ones perturb a
// random test row, hot ones come from a fixed hot set by a Zipf draw.
type instances struct {
	rng  *rand.Rand
	rows [][]float64
	sd   []float64
	hot  [][]float64
	zipf *rand.Zipf
}

func newInstances(rng *rand.Rand, rows [][]float64, hotN int) *instances {
	d := len(rows[0])
	sd := make([]float64, d)
	for j := 0; j < d; j++ {
		var s, s2 float64
		for _, r := range rows {
			s += r[j]
			s2 += r[j] * r[j]
		}
		n := float64(len(rows))
		sd[j] = math.Sqrt(math.Max(0, s2/n-(s/n)*(s/n)))
	}
	in := &instances{rng: rng, rows: rows, sd: sd}
	for i := 0; i < hotN; i++ {
		in.hot = append(in.hot, in.fresh())
	}
	if hotN > 1 {
		in.zipf = rand.NewZipf(rng, zipfS, 1, uint64(hotN-1))
	}
	return in
}

func (in *instances) fresh() []float64 {
	x := append([]float64(nil), in.rows[in.rng.Intn(len(in.rows))]...)
	for j := range x {
		x[j] += perturb * in.sd[j] * in.rng.NormFloat64()
	}
	return x
}

// draw returns a fresh instance when fresh is set, else a Zipf draw from
// the hot set; hot is the hot-set index or -1.
func (in *instances) draw(fresh bool) (x []float64, hot int) {
	if fresh {
		return in.fresh(), -1
	}
	h := int(in.zipf.Uint64())
	return in.hot[h], h
}

// batch draws batchSize instances of which batchFresh are fresh, at
// seeded positions; no hot instance repeats within the batch (a repeat
// would coalesce onto its twin and blur the expected tally).
func (in *instances) batch() ([][]float64, []int) {
	fresh := deck(in.rng, batchSize, batchFresh)
	var xs [][]float64
	var hot []int
	seen := map[int]bool{}
	for len(xs) < batchSize {
		x, h := in.draw(fresh[len(xs)])
		if h >= 0 {
			if seen[h] {
				continue
			}
			seen[h] = true
		}
		xs = append(xs, x)
		hot = append(hot, h)
	}
	return xs, hot
}

// deck returns n flags of which k are set, in seeded order. Drawing a
// mix from a deck instead of coin flips fixes its proportions exactly,
// so runs on different seeds differ in order and instances, not in how
// much work they carry.
func deck(rng *rand.Rand, n, k int) []bool {
	d := make([]bool, n)
	for i := 0; i < k; i++ {
		d[i] = true
	}
	rng.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

type explainBody struct {
	Features  []float64   `json:"features,omitempty"`
	Instances [][]float64 `json:"instances,omitempty"`
}

func newOp(kind opKind, model string, xs [][]float64, hot []int) *op {
	o := &op{kind: kind, model: model, xs: xs, hot: hot}
	var b explainBody
	if kind == opBatch {
		b.Instances = xs
	} else {
		b.Features = xs[0]
	}
	o.body, _ = json.Marshal(b) // float slices always marshal
	return o
}

// plan is every input of one run, generated from the seed.
type plan struct {
	warm []*op // sent before timing (never part of the sample)
	// timed deals the timed phase's requests in send order.
	timed *stream
	hot   [][]float64
	// probeBatch is timed after the phase on a workload whose mix has
	// no batches.
	probeBatch []*op
	// records feed the retrains: the first windowRows prefill the
	// feed's window, then blockRecords per retrain.
	records []telemetry.Record
}

// stream deals requests one at a time from blocks a generator makes on
// demand. Blocks are generated in order from one seeded source, so the
// n-th request dealt is the same on every run with that seed, however
// fast the program answers; a closed loop draws as many as it gets
// through, and memory grows only with what it sends.
type stream struct {
	mu    sync.Mutex
	block func() []*op
	buf   []*op
}

// next returns the next request; a stream dealt from a fixed list
// returns nil after its last one.
func (s *stream) next() *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 && s.block != nil {
		s.buf = s.block()
	}
	if len(s.buf) == 0 {
		return nil
	}
	o := s.buf[0]
	s.buf = s.buf[1:]
	return o
}

// listStream deals ops in order, then nil.
func listStream(ops []*op) *stream { return &stream{buf: ops} }

// makePlan generates the run's inputs. rows maps each served model to
// its test rows, which explaind and this process derive identically.
func (w *workload) makePlan(seed int64, rows map[string][][]float64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := &plan{}
	switch w.name {
	case "kernel-miss":
		gbt := newInstances(rng, rows[gbtModel], 0)
		mlp := newInstances(rng, rows[mlpModel], 0)
		for _, m := range []string{gbtModel, mlpModel} {
			in := gbt
			if m == mlpModel {
				in = mlp
			}
			for i := 0; i < 2; i++ {
				pl.warm = append(pl.warm, newOp(opExplain, m, [][]float64{in.fresh()}, []int{-1}))
			}
		}
		// Batches all go to the gbt model: a 3:1 mix over a handful of
		// batches would make the tail depend on how many mlp ones landed.
		// They are drawn before the stream so that it cannot shift them.
		for i := 0; i < probeBatches; i++ {
			xs := make([][]float64, batchSize)
			hot := make([]int, batchSize)
			for j := range xs {
				xs[j], hot[j] = gbt.fresh(), -1
			}
			pl.probeBatch = append(pl.probeBatch, newOp(opBatch, gbtModel, xs, hot))
		}
		// Each client shows the predictions of a few fresh instances,
		// then explains the last. The model mix is dealt in blocks of
		// gbtDeck, so every prefix the loop gets through holds the same
		// share of gbt explains.
		pl.timed = &stream{block: func() []*op {
			var blk []*op
			for _, isGBT := range deck(rng, gbtDeck, gbtDeck*3/4) {
				m, in := mlpModel, mlp
				if isGBT {
					m, in = gbtModel, gbt
				}
				var x [][]float64
				for range predictsPerExplain {
					x = [][]float64{in.fresh()}
					blk = append(blk, newOp(opPredict, m, x, []int{-1}))
				}
				blk = append(blk, newOp(opExplain, m, x, []int{-1}))
			}
			return blk
		}}
	case "tree-hot":
		in := newInstances(rng, rows[rfModel], hotSetSize)
		pl.hot = in.hot
		for h, x := range in.hot {
			pl.warm = append(pl.warm, newOp(opExplain, rfModel, [][]float64{x}, []int{h}))
		}
		for i := 0; i < 4; i++ {
			pl.warm = append(pl.warm, newOp(opPredict, rfModel, [][]float64{in.fresh()}, []int{-1}))
		}
		xs := make([][]float64, batchSize)
		fresh := make([]int, batchSize)
		for j := range xs {
			xs[j], fresh[j] = in.fresh(), -1
		}
		pl.warm = append(pl.warm, newOp(opBatch, rfModel, xs, fresh))
		pl.timed = &stream{block: func() []*op { return mixBlock(rng, in) }}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	recs, err := webRecords(seed, windowRows+probeRetrains*blockRecords)
	if err != nil {
		return nil, err
	}
	pl.records = recs
	return pl, nil
}

// mixBlock generates mixBlockOps requests of tree-hot in seeded order.
// Op kinds and the fresh share of single-instance ops are dealt from
// decks, so every block carries the same mix.
func mixBlock(rng *rand.Rand, in *instances) []*op {
	nExplain := int(math.Round(mixBlockOps * shareExplain))
	nPredict := int(math.Round(mixBlockOps * sharePredict))
	kinds := make([]opKind, mixBlockOps)
	for i := range kinds {
		switch {
		case i < nExplain:
			kinds[i] = opExplain
		case i < nExplain+nPredict:
			kinds[i] = opPredict
		default:
			kinds[i] = opBatch
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	isFresh := deck(rng, nExplain+nPredict, int(math.Round(float64(nExplain+nPredict)*freshProb)))
	blk := make([]*op, 0, mixBlockOps)
	single := 0
	for _, k := range kinds {
		if k == opBatch {
			xs, hot := in.batch()
			blk = append(blk, newOp(opBatch, rfModel, xs, hot))
			continue
		}
		x, h := in.draw(isFresh[single])
		blk = append(blk, newOp(k, rfModel, [][]float64{x}, []int{h}))
		single++
	}
	return blk
}

// webRecords simulates n epochs of the web scenario seeded by seed, with
// the load stepped up by loadStep on every other retrain block.
func webRecords(seed int64, n int) ([]telemetry.Record, error) {
	spec := core.WebScenarioSpec()
	blockSec := float64(blockRecords) * spec.EpochSec
	start := float64(windowRows) * spec.EpochSec
	for t := start + blockSec; t < start+float64(n)*spec.EpochSec; t += 2 * blockSec {
		spec.Traffic.FlashCrowds = append(spec.Traffic.FlashCrowds,
			core.FlashCrowdSpec{StartSec: t, DurationSec: blockSec, Multiplier: loadStep})
	}
	sc, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	world, h, err := sc.BuildWorld(seed, nil)
	if err != nil {
		return nil, err
	}
	recs := make([]telemetry.Record, 0, n)
	h.OnEpoch(func(r telemetry.Record) {
		if len(recs) < n {
			recs = append(recs, r)
		}
	})
	world.Run(float64(n+1) * spec.EpochSec)
	if len(recs) < n {
		return nil, fmt.Errorf("web simulation produced %d of %d records", len(recs), n)
	}
	return recs, nil
}
