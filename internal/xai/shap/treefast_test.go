package shap

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/nn"
)

// referenceEval is the masked evaluator's per-coalition walk, the oracle
// for the table path: every (tree, background) divergence tree is walked
// once per coalition and its weighted leaf added to that coalition's
// accumulator, trees in ensemble order.
func referenceEval(e *maskedEvaluator, x []float64, bg [][]float64, masks [][]bool) []float64 {
	nc := len(masks)
	acc := make([]float64, len(bg)*nc)
	var r reduced
	for bi, b := range bg {
		row := acc[bi*nc : (bi+1)*nc]
		for ti, tr := range e.trees {
			wt := e.w[ti]
			r.reset()
			r.build(tr.Nodes, 0, x, b)
			for ci, m := range masks {
				j := int32(0)
				for f := r.feature[0]; f >= 0; f = r.feature[j] {
					if m[f] {
						j = r.xChild[j]
					} else {
						j = r.bChild[j]
					}
				}
				row[ci] += wt * r.value[j]
			}
		}
	}
	vals := make([]float64, nc)
	for ci := range vals {
		var s float64
		for bi := range bg {
			v := e.base + acc[bi*nc+ci]
			if e.link != nil {
				v = e.link(v)
			}
			s += v
		}
		vals[ci] = s / float64(len(bg))
	}
	return vals
}

// syntheticTask builds n rows of d standard-normal features with a
// nonlinear target (thresholded at 0 for classification).
func syntheticTask(task dataset.Task, n, d int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	ds := dataset.New(task, names...)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := math.Sin(2*x[0]) + x[1]*x[2] - x[3] + 0.5*x[4]*x[5] + 0.1*rng.NormFloat64()
		if task == dataset.Classification {
			y = math.Max(0, math.Copysign(1, y))
		}
		ds.Add(x, y)
	}
	return ds
}

// randomMasks draws n uniform coalitions over d features.
func randomMasks(rng *rand.Rand, n, d int) [][]bool {
	masks := make([][]bool, n)
	for i := range masks {
		m := make([]bool, d)
		for j := range m {
			m[j] = rng.Intn(2) == 1
		}
		masks[i] = m
	}
	return masks
}

// tableCoverage counts the (tree, background) pairs whose divergence
// tree takes the table path and those that fall back to the walk.
func tableCoverage(e *maskedEvaluator, x []float64, bg [][]float64) (table, walk int) {
	s := getTreeScratch(len(x), 1)
	defer putTreeScratch(s)
	for _, b := range bg {
		for _, tr := range e.trees {
			s.r.reset()
			s.r.build(tr.Nodes, 0, x, b)
			if s.r.feature[0] < 0 {
				continue
			}
			if s.fillTable(1) {
				table++
			} else {
				walk++
			}
		}
	}
	return table, walk
}

// TestTableEvalMatchesWalk: the table evaluator reproduces the walk bit
// for bit on GBT classification (sigmoid link) and on a depth-10 random
// forest whose wide divergence trees exercise the walk fallback, with
// feature and coalition counts that are not multiples of 8.
func TestTableEvalMatchesWalk(t *testing.T) {
	gbtData := syntheticTask(dataset.Classification, 400, 13, 1)
	gbt := &forest.GradientBoosting{NumRounds: 40, LearningRate: 0.1, MaxDepth: 4, Task: dataset.Classification, Seed: 2}
	if err := gbt.Fit(gbtData); err != nil {
		t.Fatal(err)
	}
	rfData := syntheticTask(dataset.Regression, 600, 11, 3)
	rf := &forest.RandomForest{NumTrees: 20, MaxDepth: 10, MinLeaf: 1, Task: dataset.Regression, Seed: 4}
	if err := rf.Fit(rfData); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		model     ml.Predictor
		ds        *dataset.Dataset
		sigmoid   bool
		wantWalks bool
	}{
		{"gbt-classification", gbt, gbtData, true, false},
		{"rf-depth10", rf, rfData, false, true},
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		k := &Kernel{Model: c.model, Background: c.ds.X[:37]}
		e := newMaskedEvaluator(k)
		if e == nil {
			t.Fatalf("%s: no masked evaluator", c.name)
		}
		if (e.link != nil) != c.sigmoid {
			t.Fatalf("%s: sigmoid link detected = %v, want %v", c.name, e.link != nil, c.sigmoid)
		}
		var tables, walks int
		for _, nc := range []int{1, 61, 997} {
			masks := randomMasks(rng, nc, len(c.ds.X[0]))
			for _, xi := range []int{100, 201, 333} {
				x := c.ds.X[xi]
				want := referenceEval(e, x, k.Background, masks)
				got := make([]float64, nc)
				if err := e.evalCoalitions(context.Background(), x, k.Background, masks, got); err != nil {
					t.Fatal(err)
				}
				for ci := range want {
					if math.Float64bits(got[ci]) != math.Float64bits(want[ci]) {
						t.Fatalf("%s nc=%d x=%d coalition %d: table %v, walk %v", c.name, nc, xi, ci, got[ci], want[ci])
					}
				}
				tb, wk := tableCoverage(e, x, k.Background)
				tables += tb
				walks += wk
			}
		}
		if tables == 0 {
			t.Errorf("%s: no divergence tree took the table path", c.name)
		}
		if c.wantWalks && walks == 0 {
			t.Errorf("%s: no divergence tree exercised the k > %d walk", c.name, maxTableBits)
		}
	}
}

// TestDistinctEvalMatchesFull: evaluating a draw with forced repeats
// once per distinct coalition fills vals exactly as evaluating every
// draw does, on the masked tree path and on the generic batched path.
func TestDistinctEvalMatchesFull(t *testing.T) {
	rfData := syntheticTask(dataset.Regression, 300, 9, 6)
	rf := &forest.RandomForest{NumTrees: 8, MaxDepth: 6, Task: dataset.Regression, Seed: 7}
	if err := rf.Fit(rfData); err != nil {
		t.Fatal(err)
	}
	mlp := &nn.MLP{Hidden: []int{7, 5}, Epochs: 3, Task: dataset.Regression, Seed: 8}
	if err := mlp.Fit(rfData); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	base := randomMasks(rng, 41, 9)
	masks := make([][]bool, 203)
	for i := range masks {
		masks[i] = base[rng.Intn(len(base))]
	}
	for name, m := range map[string]ml.Predictor{"forest": rf, "mlp": mlp} {
		k := &Kernel{Model: m, Background: rfData.X[:23]}
		x := rfData.X[150]
		want := make([]float64, len(masks))
		if err := k.evalCoalitions(context.Background(), x, masks, want); err != nil {
			t.Fatal(err)
		}
		buf := getCoalitionBuf()
		got := make([]float64, len(masks))
		if err := k.evalDistinct(context.Background(), x, masks, got, buf); err != nil {
			t.Fatal(err)
		}
		uniq, _ := buf.distinct(masks)
		if len(uniq) >= len(masks) || len(uniq) > len(base) {
			t.Fatalf("%s: %d distinct of %d draws over %d masks", name, len(uniq), len(masks), len(base))
		}
		buf.release()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: coalition %d: deduplicated %v, full %v", name, i, got[i], want[i])
			}
		}
	}
}
