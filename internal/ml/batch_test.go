package ml_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/linear"
	"nfvxai/internal/ml/nn"
	"nfvxai/internal/ml/tree"
)

// syntheticData builds a nonlinear dataset wide enough to exercise every
// model's batch path.
func syntheticData(n int, task dataset.Task, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(task, "a", "b", "c", "d", "e", "f")
	for i := 0; i < n; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := math.Sin(x[0])*3 + x[1]*x[2] - 2*x[3] + 0.1*rng.NormFloat64()
		if task == dataset.Classification {
			if y > 0 {
				y = 1
			} else {
				y = 0
			}
		}
		d.Add(x, y)
	}
	return d
}

// fittedModels trains one instance of every model in the zoo.
func fittedModels(t *testing.T) map[string]ml.Predictor {
	t.Helper()
	reg := syntheticData(300, dataset.Regression, 7)
	cls := syntheticData(300, dataset.Classification, 8)

	models := map[string]ml.Predictor{}
	lin := &linear.Regression{Ridge: 1e-3}
	if err := lin.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["linear"] = lin

	logit := &linear.Logistic{Epochs: 30, BatchSize: 32, Seed: 1}
	if err := logit.Fit(cls); err != nil {
		t.Fatal(err)
	}
	models["logistic"] = logit

	cart := tree.New(tree.Config{Task: dataset.Regression, MaxDepth: 7, Seed: 3})
	if err := cart.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["tree"] = cart

	rf := &forest.RandomForest{NumTrees: 15, MaxDepth: 6, Task: dataset.Regression, Seed: 4}
	if err := rf.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["forest"] = rf

	gbt := &forest.GradientBoosting{NumRounds: 25, MaxDepth: 3, Task: dataset.Classification, Seed: 5}
	if err := gbt.Fit(cls); err != nil {
		t.Fatal(err)
	}
	models["gbt"] = gbt

	mlp := &nn.MLP{Hidden: []int{12, 6}, Epochs: 10, Task: dataset.Regression, Seed: 6}
	if err := mlp.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["mlp"] = mlp
	return models
}

// TestPredictBatchParity checks that every native batch path reproduces a
// Predict loop exactly — bit-identical, not just within tolerance — which
// is what lets the explainer rewrites claim unchanged attributions.
func TestPredictBatchParity(t *testing.T) {
	X := syntheticData(700, dataset.Regression, 11).X
	for name, m := range fittedModels(t) {
		bp, ok := m.(ml.BatchPredictor)
		if !ok {
			t.Errorf("%s: does not implement ml.BatchPredictor", name)
			continue
		}
		got := make([]float64, len(X))
		bp.PredictBatch(X, got)
		for i, x := range X {
			if want := m.Predict(x); got[i] != want {
				t.Fatalf("%s: row %d: PredictBatch %v != Predict %v", name, i, got[i], want)
			}
		}
		// The dispatch helpers must route to the same fast path.
		viaHelper := ml.PredictBatch(m, X)
		par := make([]float64, len(X))
		ml.PredictBatchParallel(m, X, par, 4)
		for i := range X {
			if viaHelper[i] != got[i] || par[i] != got[i] {
				t.Fatalf("%s: row %d: helper dispatch mismatch", name, i)
			}
		}
	}
}

// TestPredictBatchNaNRouting pins down the NaN convention: Predict's
// `x <= threshold ? left : right` sends NaN right, and the flattened
// batch walk must agree.
func TestPredictBatchNaNRouting(t *testing.T) {
	reg := syntheticData(200, dataset.Regression, 41)
	rf := &forest.RandomForest{NumTrees: 8, MaxDepth: 6, Task: dataset.Regression, Seed: 13}
	if err := rf.Fit(reg); err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, 0, 24)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			x := append([]float64(nil), reg.X[i]...)
			x[j] = math.NaN()
			X = append(X, x)
		}
	}
	out := make([]float64, len(X))
	rf.PredictBatch(X, out)
	for i, x := range X {
		if want := rf.Predict(x); out[i] != want && !(math.IsNaN(out[i]) && math.IsNaN(want)) {
			t.Fatalf("NaN row %d: PredictBatch %v != Predict %v", i, out[i], want)
		}
	}
}

// TestPredictBatchParallelGeneric checks the worker-chunked fallback for
// models without a native batch path.
func TestPredictBatchParallelGeneric(t *testing.T) {
	m := ml.PredictorFunc(func(x []float64) float64 { return 3*x[0] - x[1] })
	X := make([][]float64, 1000) // above the parallel threshold
	for i := range X {
		X[i] = []float64{float64(i), float64(2 * i)}
	}
	out := make([]float64, len(X))
	ml.PredictBatchParallel(m, X, out, 0)
	for i, x := range X {
		if want := m.Predict(x); out[i] != want {
			t.Fatalf("row %d: %v != %v", i, out[i], want)
		}
	}
}

// TestConcurrentPredictBatch exercises the lazily built flattened-tree
// layout and the ensemble sharding under concurrency; run with -race.
func TestConcurrentPredictBatch(t *testing.T) {
	reg := syntheticData(300, dataset.Regression, 21)
	rf := &forest.RandomForest{NumTrees: 10, MaxDepth: 6, Task: dataset.Regression, Seed: 9}
	if err := rf.Fit(reg); err != nil {
		t.Fatal(err)
	}
	// Drop the fit-time layout so goroutines race to rebuild it.
	for _, tr := range rf.Trees {
		tr.InvalidateFlat()
	}
	X := reg.X
	want := make([]float64, len(X))
	rf.PredictBatch(X, want)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(X))
			rf.PredictBatch(X, out)
			for i := range out {
				if out[i] != want[i] {
					t.Errorf("row %d: concurrent %v != %v", i, out[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInvalidateFlat checks that direct Node mutation plus invalidation is
// reflected by the batch path (the boosting Newton-step pattern).
func TestInvalidateFlat(t *testing.T) {
	reg := syntheticData(100, dataset.Regression, 31)
	cart := tree.New(tree.Config{Task: dataset.Regression, MaxDepth: 3, Seed: 1})
	if err := cart.Fit(reg); err != nil {
		t.Fatal(err)
	}
	for i := range cart.Nodes {
		if cart.Nodes[i].IsLeaf() {
			cart.Nodes[i].Value += 100
		}
	}
	cart.InvalidateFlat()
	out := make([]float64, 1)
	cart.PredictBatch(reg.X[:1], out)
	if want := cart.Predict(reg.X[0]); out[0] != want {
		t.Fatalf("after invalidate: batch %v != predict %v", out[0], want)
	}
}

// TestPredictBatchBlockedParity pins the register-blocked batch kernel
// to Predict bit for bit. The widths cover layers made only of 4-output
// blocks (48, 24), blocks plus a scalar tail (7, 5), a lone tail output
// (1) and the 1-wide output layer; 600 rows span a full and a partial
// batch chunk.
func TestMLPPredictBatchBlockedParity(t *testing.T) {
	cases := []struct {
		hidden []int
		task   dataset.Task
		act    nn.Activation
	}{
		{[]int{7, 5}, dataset.Regression, nn.ReLU},
		{[]int{7, 5}, dataset.Classification, nn.Tanh},
		{[]int{48, 24}, dataset.Regression, nn.ReLU},
		{[]int{48, 24}, dataset.Classification, nn.ReLU},
		{[]int{1}, dataset.Regression, nn.ReLU},
	}
	rng := rand.New(rand.NewSource(17))
	reg := dataset.New(dataset.Regression, "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m")
	cls := dataset.New(dataset.Classification, reg.Names...)
	for i := 0; i < 600; i++ {
		x := make([]float64, 13)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := math.Sin(x[0]) + x[1]*x[2] - x[3]
		reg.Add(x, y)
		cls.Add(x, math.Max(0, math.Copysign(1, y)))
	}
	for _, c := range cases {
		d := reg
		if c.task == dataset.Classification {
			d = cls
		}
		m := &nn.MLP{Hidden: c.hidden, Act: c.act, Epochs: 3, Task: c.task, Seed: 5}
		if err := m.Fit(d); err != nil {
			t.Fatal(err)
		}
		batch := make([]float64, len(d.X))
		m.PredictBatch(d.X, batch)
		par := make([]float64, len(d.X))
		ml.PredictBatchParallel(m, d.X, par, 0)
		for i, x := range d.X {
			want := math.Float64bits(m.Predict(x))
			if math.Float64bits(batch[i]) != want || math.Float64bits(par[i]) != want {
				t.Fatalf("hidden %v task %v row %d: Predict %v, PredictBatch %v, PredictBatchParallel %v",
					c.hidden, c.task, i, m.Predict(x), batch[i], par[i])
			}
		}
	}
}
