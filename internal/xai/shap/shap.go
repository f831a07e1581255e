// Package shap implements SHAP (SHapley Additive exPlanations) for
// arbitrary black-box models: the KernelSHAP weighted-least-squares
// estimator of Lundberg & Lee (NIPS 2017) plus an exact exponential-time
// Shapley computation used as a correctness oracle on small feature
// counts. Feature removal is interventional: absent features are replaced
// by values drawn from a background dataset, and the value of a coalition
// is the mean model output over the background replacements.
package shap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"nfvxai/internal/mat"
	"nfvxai/internal/ml"
	"nfvxai/internal/xai"
)

// init registers KernelSHAP in the xai method registry as the
// model-agnostic local attribution method. It needs a background sample
// and is deterministic for a fixed (options, background) pair.
func init() {
	xai.Register(xai.Method{
		Name: "kernelshap",
		Kind: xai.KindLocal,
		Caps: xai.Capabilities{
			NeedsBackground: true,
			SupportsBatch:   true,
			Deterministic:   true,
			Additive:        true,
		},
		Defaults: xai.Options{Samples: 2048, Ridge: 1e-9},
		Build: func(t xai.Target, o xai.Options) (xai.Explainer, error) {
			return &Kernel{
				Model:      t.Model,
				Background: t.Background,
				NumSamples: o.Samples,
				Ridge:      o.Ridge,
				Seed:       o.Seed,
				Names:      t.Names,
			}, nil
		},
	})
}

// Kernel is a KernelSHAP explainer. Background must be non-empty; its
// rows define the reference distribution for absent features and the base
// value (mean prediction over background).
//
// Explain assembles the full (coalition × background) perturbation matrix
// and evaluates it through the model's batch path (ml.PredictBatchParallel),
// so models implementing ml.BatchPredictor — trees, forests, GBTs, MLPs,
// linear models — are scored over contiguous buffers instead of one
// pointer-chased Predict call per perturbed row. Plain Predictors fall
// back to a worker-chunked Predict loop and produce identical results.
type Kernel struct {
	Model ml.Predictor
	// Background rows are reference inputs; 50–200 rows is typical.
	Background [][]float64
	// NumSamples bounds the number of coalitions evaluated (default 2048).
	// When 2^d−2 fits in the budget, all coalitions are enumerated and the
	// estimator is exact (for the given background).
	NumSamples int
	// Ridge regularizes the WLS solve (default 1e-9, numerical only).
	Ridge float64
	// Seed drives coalition sampling.
	Seed int64
	// Names are optional feature names copied into attributions.
	Names []string
	// RowAtATime disables the batched fast path and the base-value cache,
	// reproducing the seed's one-Predict-per-perturbation behavior. It
	// exists as the benchmark baseline; serving code leaves it false.
	RowAtATime bool
	// BlockSamples sets the progressive path's per-block coalition count
	// (default 128). Smaller blocks react to deadlines faster at the cost
	// of more WLS solves.
	BlockSamples int
	// ConvergeTol is the progressive path's relative convergence tolerance
	// (default 0.02): sampling stops early once every per-feature 95% CI
	// half-width falls below ConvergeTol × the attribution scale. Negative
	// disables early convergence (tests use this for a fixed block count).
	ConvergeTol float64

	// The base value E[f(background)] depends only on the frozen model and
	// background, so it is computed once and shared across Explain calls —
	// xai.ExplainBatch invokes Explain from many goroutines, hence the Once.
	// Mutating Model or Background after the first Explain invalidates it;
	// build a fresh Kernel instead.
	baseOnce sync.Once
	baseVal  float64

	// The masked tree-ensemble evaluator (treefast.go) is detected once:
	// whether the model decomposes into additive trees does not change
	// for a frozen model.
	fastOnce sync.Once
	fast     *maskedEvaluator
}

// Explain computes the SHAP attribution of the model at x. Cancellation
// is honored between coalition-evaluation blocks.
func (k *Kernel) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	d := len(x)
	if d == 0 {
		return xai.Attribution{}, errors.New("shap: empty input")
	}
	if len(k.Background) == 0 {
		return xai.Attribution{}, errors.New("shap: empty background")
	}
	for i, b := range k.Background {
		if len(b) != d {
			return xai.Attribution{}, fmt.Errorf("shap: background row %d has %d features, want %d", i, len(b), d)
		}
	}
	base := k.baseValue()
	fx := k.Model.Predict(x)

	if d == 1 {
		// Single feature: the entire gap is its contribution.
		return xai.Attribution{Names: k.Names, Phi: []float64{fx - base}, Base: base, Value: fx}, nil
	}

	budget := k.NumSamples
	if budget <= 0 {
		budget = 2048
	}
	// A context deadline selects the progressive anytime estimator: sample
	// in blocks, stop at convergence or at the deadline, and return the
	// partial estimate instead of a timeout error. Without a deadline the
	// classic single-solve path below runs bit-identically to before.
	if _, hasDeadline := ctx.Deadline(); hasDeadline && !k.RowAtATime {
		return k.explainProgressive(ctx, x, base, fx, budget)
	}
	// Pooled draw scratch: masks and vals alias buf until release, which
	// is safe because solvePhi below copies nothing out of them.
	buf := getCoalitionBuf()
	defer buf.release()
	var masks [][]bool
	var weights []float64
	if total := (1 << uint(d)) - 2; d <= 20 && total <= budget {
		masks, weights = enumerateCoalitionsBuf(d, buf)
	} else {
		rng := getRNG(k.Seed + 0x9E3779B9)
		masks, weights = sampleCoalitionsBuf(rng.Rand, d, budget, buf)
		putRNG(rng)
	}

	// Evaluate the value function for every coalition.
	vals := buf.valsFor(len(masks))
	if k.RowAtATime {
		for i, m := range masks {
			if err := xai.Canceled(ctx, "shap"); err != nil {
				return xai.Attribution{}, err
			}
			vals[i] = k.coalitionValue(x, m)
		}
	} else if err := k.evalDistinct(ctx, x, masks, vals, buf); err != nil {
		return xai.Attribution{}, err
	}

	phi, err := solvePhi(masks, weights, vals, base, fx, k.ridge())
	if err != nil {
		return xai.Attribution{}, err
	}
	return xai.Attribution{Names: k.Names, Phi: phi, Base: base, Value: fx}, nil
}

func (k *Kernel) ridge() float64 {
	if k.Ridge > 0 {
		return k.Ridge
	}
	return 1e-9
}

// solvePhi solves the constrained WLS for one set of evaluated coalitions:
// phi[d-1] is eliminated via the efficiency constraint Σ phi = fx − base
// and recovered from the remainder, so every solution — including the
// per-block solutions of the progressive estimator — sums exactly to
// fx − base.
func solvePhi(masks [][]bool, weights, vals []float64, base, fx, ridge float64) ([]float64, error) {
	d := len(masks[0])
	// Design matrix, target and solution come from pooled scratch; only
	// phi (the returned attribution) is allocated.
	sb := solvePool.Get().(*solveBuf)
	defer solvePool.Put(sb)
	a := sb.a.Reshape(len(masks), d-1)
	if cap(sb.b) < len(masks) {
		sb.b = make([]float64, len(masks))
	}
	b := sb.b[:len(masks)]
	for i, m := range masks {
		zd := 0.0
		if m[d-1] {
			zd = 1
		}
		row := a.Row(i)
		for j := 0; j < d-1; j++ {
			zj := 0.0
			if m[j] {
				zj = 1
			}
			row[j] = zj - zd
		}
		b[i] = vals[i] - base - zd*(fx-base)
	}
	if cap(sb.sol) < d-1 {
		sb.sol = make([]float64, d-1)
	}
	sol := sb.sol[:d-1]
	if err := mat.SolveWeightedRidgeInto(a, b, weights, ridge, sol); err != nil {
		return nil, fmt.Errorf("shap: WLS solve: %w", err)
	}
	//lint:allow poolalloc phi escapes into the returned Attribution
	phi := make([]float64, d)
	copy(phi, sol)
	var sum float64
	for _, p := range sol {
		sum += p
	}
	phi[d-1] = (fx - base) - sum
	return phi, nil
}

func (k *Kernel) baseValue() float64 {
	if k.RowAtATime {
		return k.computeBase()
	}
	k.baseOnce.Do(func() { k.baseVal = k.computeBase() })
	return k.baseVal
}

func (k *Kernel) computeBase() float64 {
	var s float64
	if k.RowAtATime {
		for _, b := range k.Background {
			s += k.Model.Predict(b)
		}
	} else {
		//lint:allow poolalloc base-value scratch, once per explainer lifetime
		preds := make([]float64, len(k.Background))
		ml.PredictBatchParallel(k.Model, k.Background, preds, 0)
		for _, p := range preds {
			s += p
		}
	}
	return s / float64(len(k.Background))
}

// coalitionValue returns E_b[f(z)] where z takes x on mask-true features
// and the background row elsewhere — the row-at-a-time reference
// implementation kept as the benchmark/parity baseline.
func (k *Kernel) coalitionValue(x []float64, mask []bool) float64 {
	//lint:allow poolalloc single-coalition probe, not on the batched hot path
	z := make([]float64, len(x))
	var s float64
	for _, bg := range k.Background {
		for j := range z {
			if mask[j] {
				z[j] = x[j]
			} else {
				z[j] = bg[j]
			}
		}
		s += k.Model.Predict(z)
	}
	return s / float64(len(k.Background))
}

// evalBlockRows bounds the perturbation-matrix block: at the default
// budget (1024 coalitions × 60 background rows) blocks keep the backing
// buffer under ~2 MB while still amortizing each PredictBatch dispatch
// over thousands of contiguous rows.
const evalBlockRows = 16384

// evalCoalitions fills vals[i] with the coalition value of masks[i]: the
// mean model output over the background replacements. Additive tree
// ensembles take the masked divergence-tree path (treefast.go); all other
// models get the (coalition × background) perturbation rows of a block
// assembled in one flat backing buffer and evaluated with a single
// batched model call. The generic reduction sums each coalition's
// background predictions in row order, so it is bit-identical to
// coalitionValue; the masked path agrees to within float reassociation.
// ctx is checked once per block / background row.
func (k *Kernel) evalCoalitions(ctx context.Context, x []float64, masks [][]bool, vals []float64) error {
	k.fastOnce.Do(func() { k.fast = newMaskedEvaluator(k) })
	if k.fast != nil {
		return k.fast.evalCoalitions(ctx, x, k.Background, masks, vals)
	}
	d := len(x)
	nb := len(k.Background)
	perBlock := evalBlockRows / nb
	if perBlock < 1 {
		perBlock = 1
	}
	rowsCap := perBlock * nb
	// Pooled block scratch: rows are fully rewritten (copy + overrides)
	// and preds fully rewritten before any read, so no zeroing; the row
	// headers are re-carved because d differs between pooled users.
	eb := evalPool.Get().(*evalBuf)
	defer evalPool.Put(eb)
	if cap(eb.backing) < rowsCap*d {
		eb.backing = make([]float64, rowsCap*d)
	}
	backing := eb.backing[:rowsCap*d]
	if cap(eb.rows) < rowsCap {
		eb.rows = make([][]float64, rowsCap)
	}
	rows := eb.rows[:rowsCap]
	for r := range rows {
		rows[r] = backing[r*d : (r+1)*d]
	}
	if cap(eb.preds) < rowsCap {
		eb.preds = make([]float64, rowsCap)
	}
	preds := eb.preds[:rowsCap]
	if cap(eb.kept) < d {
		eb.kept = make([]int, 0, d)
	}
	kept := eb.kept[:0] // mask-true feature indices, rebuilt per coalition
	for lo := 0; lo < len(masks); lo += perBlock {
		if err := xai.Canceled(ctx, "shap"); err != nil {
			return err
		}
		hi := lo + perBlock
		if hi > len(masks) {
			hi = len(masks)
		}
		r := 0
		for _, m := range masks[lo:hi] {
			kept = kept[:0]
			for j, on := range m {
				if on {
					kept = append(kept, j)
				}
			}
			for _, bg := range k.Background {
				mat.HybridRow(rows[r], bg, x, kept)
				r++
			}
		}
		ml.PredictBatchParallel(k.Model, rows[:r], preds[:r], 0)
		r = 0
		for ci := lo; ci < hi; ci++ {
			var s float64
			for b := 0; b < nb; b++ {
				s += preds[r]
				r++
			}
			vals[ci] = s / float64(nb)
		}
	}
	return nil
}

// evalDistinct is evalCoalitions evaluating each distinct mask once. A
// sampled draw repeats coalitions: the size distribution favors the few
// smallest and largest sizes, so only about 720–820 of 1024 draws are
// distinct at d = 22–26 (an enumeration has no repeats and passes
// straight through).
// A coalition's value does not depend on which other coalitions share
// the call, so each distinct mask is evaluated once and its value copied
// to its repeats; vals comes out exactly as evalCoalitions over masks
// would fill it, and the WLS solve still sees every drawn row.
func (k *Kernel) evalDistinct(ctx context.Context, x []float64, masks [][]bool, vals []float64, buf *coalitionBuf) error {
	uniq, rep := buf.distinct(masks)
	if len(uniq) == len(masks) {
		return k.evalCoalitions(ctx, x, masks, vals)
	}
	uvals := buf.uvalsFor(len(uniq))
	if err := k.evalCoalitions(ctx, x, uniq, uvals); err != nil {
		return err
	}
	for i, r := range rep {
		vals[i] = uvals[r]
	}
	return nil
}

// shapleyKernelWeight is the KernelSHAP weight for a coalition of size s
// out of d features: (d−1) / (C(d,s) · s · (d−s)).
func shapleyKernelWeight(d, s int) float64 {
	return float64(d-1) / (binom(d, s) * float64(s) * float64(d-s))
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// enumerateCoalitions returns every non-trivial mask with its Shapley
// kernel weight.
func enumerateCoalitions(d int) ([][]bool, []float64) {
	return enumerateCoalitionsBuf(d, nil)
}

// enumerateCoalitionsBuf is enumerateCoalitions carving masks and
// weights out of buf's pooled storage when buf is non-nil. The returned
// slices alias the buffer and are valid only until it is released.
func enumerateCoalitionsBuf(d int, buf *coalitionBuf) ([][]bool, []float64) {
	total := (1 << uint(d)) - 2
	var masks [][]bool
	var weights []float64
	var backing []bool
	if buf != nil {
		if cap(buf.backing) < total*d {
			buf.backing = make([]bool, total*d)
		}
		// The loop only SETS true bits; reused backing must come in clear.
		backing = buf.backing[:total*d]
		clear(backing)
		if cap(buf.masks) < total {
			buf.masks = make([][]bool, 0, total)
		}
		if cap(buf.weights) < total {
			buf.weights = make([]float64, 0, total)
		}
		masks, weights = buf.masks[:0], buf.weights[:0]
	} else {
		masks = make([][]bool, 0, total)
		//lint:allow poolalloc nil-buf fallback for one-shot callers; pooled callers hit the branch above
		weights = make([]float64, 0, total)
		backing = make([]bool, total*d)
	}
	for bits := 1; bits < (1<<uint(d))-1; bits++ {
		m := backing[:d:d]
		backing = backing[d:]
		s := 0
		for j := 0; j < d; j++ {
			if bits&(1<<uint(j)) != 0 {
				m[j] = true
				s++
			}
		}
		masks = append(masks, m)
		weights = append(weights, shapleyKernelWeight(d, s))
	}
	if buf != nil {
		buf.masks, buf.weights = masks, weights
	}
	return masks, weights
}

// sampleCoalitions draws masks from the size distribution induced by the
// Shapley kernel (paired with their complements for variance reduction);
// sampled masks carry uniform weight since the kernel is absorbed into the
// sampling distribution.
func sampleCoalitions(d, budget int, seed int64) ([][]bool, []float64) {
	return sampleCoalitionsFrom(rand.New(rand.NewSource(seed+0x9E3779B9)), d, budget)
}

// sampleCoalitionsFrom is sampleCoalitions drawing from a caller-owned
// rng, so the progressive estimator's blocks continue one deterministic
// stream: block b's masks depend only on the seed and how many draws
// preceded them, which is what makes partial results reproducible for a
// fixed seed and block count.
func sampleCoalitionsFrom(rng *rand.Rand, d, budget int) ([][]bool, []float64) {
	return sampleCoalitionsBuf(rng, d, budget, nil)
}

// sampleCoalitionsBuf is sampleCoalitionsFrom drawing into buf's pooled
// storage when buf is non-nil (fresh allocations otherwise). The
// returned masks alias buf.backing and are valid only until the buffer
// is released. The draw itself is identical either way: storage reuse
// never changes which coalitions a given rng stream produces.
func sampleCoalitionsBuf(rng *rand.Rand, d, budget int, buf *coalitionBuf) ([][]bool, []float64) {
	// Size distribution p(s) ∝ (d−1)/(s(d−s)) for s in 1..d−1; the
	// scratch (and the permutation below) comes from the buffer when one
	// is supplied. sizeW[0] is never written by the fill loop, so a
	// reused slice is cleared first.
	var sizeW []float64
	if buf != nil {
		if cap(buf.sizeW) < d {
			buf.sizeW = make([]float64, d)
		}
		sizeW = buf.sizeW[:d]
		clear(sizeW)
	} else {
		//lint:allow poolalloc nil-buf fallback for one-shot callers; pooled callers hit the branch above
		sizeW = make([]float64, d)
	}
	for s := 1; s < d; s++ {
		sizeW[s] = float64(d-1) / (float64(s) * float64(d-s))
	}
	sizeWSum := sum(sizeW) // invariant across draws; hoisted out of the loop
	var masks [][]bool
	var weights []float64
	var backing []bool
	if buf != nil {
		if cap(buf.backing) < budget*d {
			buf.backing = make([]bool, budget*d)
		}
		// The loop below only SETS bits on primary masks, so a reused
		// backing must come in all-false.
		backing = buf.backing[:budget*d]
		clear(backing)
		if cap(buf.masks) < budget {
			buf.masks = make([][]bool, 0, budget)
		}
		if cap(buf.weights) < budget {
			buf.weights = make([]float64, 0, budget)
		}
		masks, weights = buf.masks[:0], buf.weights[:0]
	} else {
		masks = make([][]bool, 0, budget)
		//lint:allow poolalloc nil-buf fallback for one-shot callers; pooled callers hit the branch above
		weights = make([]float64, 0, budget)
		// One backing array carved into per-mask slices: a single allocation
		// for the whole draw instead of one (or two) per iteration.
		backing = make([]bool, budget*d)
	}
	nextMask := func() []bool {
		m := backing[:d:d]
		backing = backing[d:]
		return m
	}
	var perm []int
	if buf != nil {
		if cap(buf.perm) < d {
			buf.perm = make([]int, d)
		}
		perm = buf.perm[:d]
	} else {
		perm = make([]int, d)
	}
	for i := range perm {
		perm[i] = i
	}
	for len(masks) < budget {
		// Draw a size.
		u := rng.Float64() * sizeWSum
		s := 1
		for ; s < d-1; s++ {
			u -= sizeW[s]
			if u < 0 {
				break
			}
		}
		rng.Shuffle(d, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		m := nextMask()
		for _, j := range perm[:s] {
			m[j] = true
		}
		masks = append(masks, m)
		weights = append(weights, 1)
		if len(masks) < budget {
			// Paired (antithetic) complement.
			c := nextMask()
			for j := range c {
				c[j] = !m[j]
			}
			masks = append(masks, c)
			weights = append(weights, 1)
		}
	}
	if buf != nil {
		// Keep the (possibly regrown) headers so the next draw from this
		// buffer reuses their capacity.
		buf.masks, buf.weights = masks, weights
	}
	return masks, weights
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// Exact computes Shapley values by full subset enumeration (O(2^d) value
// evaluations, each averaging over the background). It is the correctness
// oracle for the estimators; keep d small (≤ 12).
func Exact(ctx context.Context, model ml.Predictor, background [][]float64, x []float64) (xai.Attribution, error) {
	d := len(x)
	if d == 0 || d > 20 {
		return xai.Attribution{}, fmt.Errorf("shap: Exact supports 1..20 features, got %d", d)
	}
	if len(background) == 0 {
		return xai.Attribution{}, errors.New("shap: empty background")
	}
	k := &Kernel{Model: model, Background: background}
	// Precompute v(S) for all subsets, batched through the model's fast path.
	n := 1 << uint(d)
	//lint:allow poolalloc Exact is the one-shot reference API, not a serving path
	vals := make([]float64, n)
	masks := make([][]bool, n)
	backing := make([]bool, n*d)
	for bits := 0; bits < n; bits++ {
		m := backing[bits*d : (bits+1)*d]
		for j := 0; j < d; j++ {
			m[j] = bits&(1<<uint(j)) != 0
		}
		masks[bits] = m
	}
	if err := k.evalCoalitions(ctx, x, masks, vals); err != nil {
		return xai.Attribution{}, err
	}
	//lint:allow poolalloc Exact is the one-shot reference API, not a serving path
	phi := make([]float64, d)
	for j := 0; j < d; j++ {
		bit := 1 << uint(j)
		for bits := 0; bits < n; bits++ {
			if bits&bit != 0 {
				continue
			}
			s := popcount(bits)
			w := fact(s) * fact(d-s-1) / fact(d)
			phi[j] += w * (vals[bits|bit] - vals[bits])
		}
	}
	return xai.Attribution{Phi: phi, Base: vals[0], Value: vals[n-1]}, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func fact(n int) float64 {
	r := 1.0
	for i := 2; i <= n; i++ {
		r *= float64(i)
	}
	return r
}

// SampleBackground draws up to n rows from X to serve as a background set.
func SampleBackground(rng *rand.Rand, X [][]float64, n int) [][]float64 {
	if n >= len(X) {
		out := make([][]float64, len(X))
		copy(out, X)
		return out
	}
	idx := rng.Perm(len(X))[:n]
	out := make([][]float64, n)
	for i, j := range idx {
		out[i] = X[j]
	}
	return out
}

// meanPrediction is exposed for tests that need the background mean.
func meanPrediction(model ml.Predictor, X [][]float64) float64 {
	var s float64
	for _, x := range X {
		s += model.Predict(x)
	}
	return s / math.Max(1, float64(len(X)))
}
