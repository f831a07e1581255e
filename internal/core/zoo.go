package core

import (
	"context"
	"fmt"
	"sync"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/linear"
	"nfvxai/internal/ml/nn"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/xai"

	// The explanation plane is assembled by side effect: every method
	// package registers itself in the xai registry from init. Importing
	// core therefore wires the full method set — the serving layer and the
	// pipeline dispatch by name through xai.LookupMethod/BuildExplainer.
	_ "nfvxai/internal/xai/anchors"
	_ "nfvxai/internal/xai/counterfactual"
	_ "nfvxai/internal/xai/intgrad"
	_ "nfvxai/internal/xai/lime"
	_ "nfvxai/internal/xai/pdp"
	_ "nfvxai/internal/xai/perm"
	_ "nfvxai/internal/xai/shap"
	_ "nfvxai/internal/xai/surrogate"
	_ "nfvxai/internal/xai/treeshap"
)

// ModelKind enumerates the model zoo used across experiments.
type ModelKind int

// Zoo members.
const (
	ModelLinear ModelKind = iota
	ModelTree
	ModelForest
	ModelGBT
	ModelMLP
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case ModelLinear:
		return "linear"
	case ModelTree:
		return "cart"
	case ModelForest:
		return "rf"
	case ModelGBT:
		return "gbt"
	case ModelMLP:
		return "mlp"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// ZooKinds lists all zoo members in report order.
func ZooKinds() []ModelKind {
	return []ModelKind{ModelLinear, ModelTree, ModelForest, ModelGBT, ModelMLP}
}

// TrainModel fits a fresh model of the given kind with the repository's
// default hyperparameters. For classification datasets, ModelLinear means
// logistic regression.
func TrainModel(kind ModelKind, train *dataset.Dataset, seed int64) (ml.Predictor, error) {
	var model ml.Trainable
	switch kind {
	case ModelLinear:
		if train.Task == dataset.Classification {
			model = &linear.Logistic{LR: 0.05, Epochs: 150, BatchSize: 64, Seed: seed}
		} else {
			// Telemetry features are collinear (rates, lags, EWMAs) and
			// span wildly different scales; standardized ridge keeps the
			// solve well posed.
			model = &linear.Regression{Ridge: 1e-2}
		}
	case ModelTree:
		model = tree.New(tree.Config{Task: train.Task, MaxDepth: 8, MinLeaf: 5, Seed: seed})
	case ModelForest:
		model = &forest.RandomForest{NumTrees: 40, MaxDepth: 10, MinLeaf: 3, Task: train.Task, Seed: seed}
	case ModelGBT:
		model = &forest.GradientBoosting{NumRounds: 120, LearningRate: 0.1, MaxDepth: 4, Task: train.Task, Seed: seed}
	case ModelMLP:
		model = &nn.MLP{Hidden: []int{48, 24}, Epochs: 60, BatchSize: 64, Task: train.Task, Seed: seed}
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", int(kind))
	}
	if err := model.Fit(normalizeFor(kind, train)); err != nil {
		return nil, fmt.Errorf("core: training %v: %w", kind, err)
	}
	if needsScaling(kind) {
		// Scale-sensitive models see standardized inputs; wrap so the
		// public Predict accepts raw telemetry vectors.
		return &scaledModel{inner: model, scaler: dataset.FitStandard(train)}, nil
	}
	return model, nil
}

// scaledModel standardizes raw telemetry vectors before delegating to the
// wrapped model. It implements ml.BatchPredictor so the batched explainer
// hot paths survive the wrapping: whole perturbation matrices are scaled
// into one flat buffer and handed to the inner model's batch path.
type scaledModel struct {
	inner  ml.Predictor
	scaler *dataset.StandardScaler
}

// Predict implements ml.Predictor on raw (unscaled) inputs.
func (s *scaledModel) Predict(x []float64) float64 {
	return s.inner.Predict(s.scaler.Transform(x))
}

// scaleBuf is PredictBatch's standardized-row scratch: one flat backing
// buffer and the row headers carved from it.
type scaleBuf struct {
	flat []float64
	rows [][]float64
}

var scalePool = sync.Pool{New: func() any { return new(scaleBuf) }}

// PredictBatch implements ml.BatchPredictor. The standardized rows live
// in pooled scratch, so a KernelSHAP block costs no allocation per row;
// the arithmetic is Transform's, so results match Predict bit for bit.
func (s *scaledModel) PredictBatch(X [][]float64, out []float64) {
	sb := scalePool.Get().(*scaleBuf)
	defer scalePool.Put(sb)
	n := 0
	for _, x := range X {
		n += len(x)
	}
	if cap(sb.flat) < n {
		sb.flat = make([]float64, n)
	}
	if cap(sb.rows) < len(X) {
		sb.rows = make([][]float64, len(X))
	}
	rows := sb.rows[:len(X)]
	off := 0
	for i, x := range X {
		rows[i] = sb.flat[off : off+len(x) : off+len(x)]
		s.scaler.TransformInto(rows[i], x)
		off += len(x)
	}
	ml.PredictBatchInto(s.inner, rows, out)
}

// gradModel mirrors intgrad.GradModel so the wrapper can forward
// differentiability without importing the explainer package.
type gradModel interface {
	Gradient(x []float64) []float64
}

// Gradient implements the differentiable-predictor contract through the
// standardizing wrapper via the chain rule: for z = (x − μ)/σ,
// ∂f(z)/∂x_j = (∂f/∂z_j)/σ_j. This keeps gradient-based explainers
// (intgrad) available on the scale-sensitive zoo members (MLP, linear,
// logistic). Inner models without an analytic gradient fall back to
// central finite differences on the raw input.
func (s *scaledModel) Gradient(x []float64) []float64 {
	if gm, ok := s.inner.(gradModel); ok {
		g := gm.Gradient(s.scaler.Transform(x))
		out := make([]float64, len(g))
		for j := range g {
			out[j] = g[j] / s.scaler.Std[j]
		}
		return out
	}
	const h = 1e-5
	out := make([]float64, len(x))
	z := append([]float64(nil), x...)
	for j := range x {
		z[j] = x[j] + h
		up := s.Predict(z)
		z[j] = x[j] - h
		down := s.Predict(z)
		z[j] = x[j]
		out[j] = (up - down) / (2 * h)
	}
	return out
}

// needsScaling reports whether the model kind trains on standardized
// inputs (gradient-trained or ridge-penalized); tree models consume raw
// features.
func needsScaling(kind ModelKind) bool {
	return kind == ModelMLP || kind == ModelLinear
}

// normalizeFor standardizes inputs for scale-sensitive models.
func normalizeFor(kind ModelKind, train *dataset.Dataset) *dataset.Dataset {
	if needsScaling(kind) {
		return dataset.Apply(train, dataset.FitStandard(train))
	}
	return train
}

// DefaultMethod names the preferred local explanation method for the
// model: exact TreeSHAP for tree ensembles, KernelSHAP otherwise.
// Classification GBTs fall back to KernelSHAP because TreeSHAP would
// explain the margin rather than the probability output.
func DefaultMethod(model ml.Predictor) string {
	switch m := model.(type) {
	case *tree.Tree, *forest.RandomForest:
		return "treeshap"
	case *forest.GradientBoosting:
		if m.Task == dataset.Regression {
			return "treeshap"
		}
		return "kernelshap"
	default:
		return "kernelshap"
	}
}

// Explain builds the default local explainer for the model through the
// xai method registry. Kept as the one-call constructor for auditing
// paths that explain ad-hoc models outside a Pipeline.
func Explain(model ml.Predictor, background [][]float64, names []string, samples int, seed int64) (xai.Explainer, string) {
	name := DefaultMethod(model)
	e, m, err := xai.BuildExplainer(name, xai.Target{Model: model, Background: background, Names: names},
		xai.Options{Samples: samples, Seed: seed})
	if err != nil {
		// The default methods build unconditionally for every zoo model
		// with a non-empty background; a failure here is a misconfigured
		// call (e.g. KernelSHAP with no background), surfaced at Explain
		// time like the pre-registry constructors did.
		return errExplainer{err: err}, name
	}
	return e, m.Name
}

// errExplainer defers a build-time failure to the first Explain call.
type errExplainer struct{ err error }

func (e errExplainer) Explain(context.Context, []float64) (xai.Attribution, error) {
	return xai.Attribution{}, e.err
}
