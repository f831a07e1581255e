package nfvxai

// Benchmark pairs for the batch-inference fast path (PR 2): each batched
// benchmark has a row-at-a-time twin evaluating the same work through
// per-row Predict calls, so the speedup is the ratio of the pair's ns/op.
// The headline numbers are recorded in BENCH_PR2.json:
//
//	go test -run '^$' -bench 'KernelShap|ForestPredict|GBTPredict' -benchmem .

import (
	"context"
	"sync"
	"testing"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/shap"
	"nfvxai/internal/xai/treeshap"
)

var (
	perfOnce sync.Once
	perfDS   *dataset.Dataset
	perfRF   *forest.RandomForest
	perfGBT  *forest.GradientBoosting
)

// perfModels trains the default forest/GBT configs (core.TrainModel's
// hyperparameters) on one virtual hour of web telemetry.
func perfModels(b *testing.B) {
	b.Helper()
	perfOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			b.Fatal(err)
		}
		perfDS = ds
		perfRF = &forest.RandomForest{NumTrees: 40, MaxDepth: 10, MinLeaf: 3, Task: ds.Task, Seed: 2}
		if err := perfRF.Fit(ds); err != nil {
			b.Fatal(err)
		}
		perfGBT = &forest.GradientBoosting{NumRounds: 120, LearningRate: 0.1, MaxDepth: 4, Task: ds.Task, Seed: 2}
		if err := perfGBT.Fit(ds); err != nil {
			b.Fatal(err)
		}
	})
}

func benchPredictRows(b *testing.B, m ml.Predictor, batched bool) {
	perfModels(b)
	X := perfDS.X
	out := make([]float64, len(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			ml.PredictBatchInto(m, X, out)
		} else {
			for r, x := range X {
				out[r] = m.Predict(x)
			}
		}
	}
}

func BenchmarkForestPredictRowAtATime(b *testing.B) {
	perfModels(b)
	benchPredictRows(b, perfRF, false)
}

func BenchmarkForestPredictBatched(b *testing.B) {
	perfModels(b)
	benchPredictRows(b, perfRF, true)
}

func BenchmarkGBTPredictRowAtATime(b *testing.B) {
	perfModels(b)
	benchPredictRows(b, perfGBT, false)
}

func BenchmarkGBTPredictBatched(b *testing.B) {
	perfModels(b)
	benchPredictRows(b, perfGBT, true)
}

// benchKernelShap explains one instance per iteration over the default
// forest config at the default 1024-sample budget with a 60-row
// background — the serving hot path's unit of work.
func benchKernelShap(b *testing.B, rowAtATime bool) {
	perfModels(b)
	bg := perfDS.X[:60]
	x := perfDS.X[100]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &shap.Kernel{Model: perfRF, Background: bg, NumSamples: 1024, Seed: 7, RowAtATime: rowAtATime}
		if _, err := k.Explain(context.Background(), x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelShapRowAtATime(b *testing.B) { benchKernelShap(b, true) }

func BenchmarkKernelShapBatched(b *testing.B) { benchKernelShap(b, false) }

// BenchmarkKernelShapBatchedServing reuses one Kernel across iterations —
// the registry serving pattern — so the sync.Once base-value cache is in
// play on top of the batched evaluation.
func BenchmarkKernelShapBatchedServing(b *testing.B) {
	perfModels(b)
	k := &shap.Kernel{Model: perfRF, Background: perfDS.X[:60], NumSamples: 1024, Seed: 7}
	x := perfDS.X[100]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Explain(context.Background(), x); err != nil {
			b.Fatal(err)
		}
	}
}

// ─── KernelSHAP at the kernel-miss serving shapes ───────────────────────
//
// perfbench's kernel-miss workload explains fresh instances with
// KernelSHAP on two pipelines: nat/gbt/violation (22 features, additive
// trees under a sigmoid link, so the masked tree evaluator) and
// web/mlp/util (26 features, a standardized MLP, so the generic batched
// evaluator). Both use the pipeline defaults: 60 background rows, 1024
// sampled coalitions and one Kernel reused across requests. These two
// benchmarks reproduce that layer in process:
//
//	go test -run '^$' -bench 'KernelShap(GBT|MLP)Serving' -benchmem .

var (
	servingOnce sync.Once
	servingGBT  *core.Pipeline
	servingMLP  *core.Pipeline
	servingErr  error
)

func servingPipelines(b *testing.B) (gbt, mlp *core.Pipeline) {
	b.Helper()
	servingOnce.Do(func() {
		nat, err := core.NATScenario().GenerateDataset(1, 1, telemetry.TargetViolation)
		if err != nil {
			servingErr = err
			return
		}
		if servingGBT, servingErr = core.NewPipeline(core.ModelGBT, nat, 1); servingErr != nil {
			return
		}
		web, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			servingErr = err
			return
		}
		servingMLP, servingErr = core.NewPipeline(core.ModelMLP, web, 1)
	})
	if servingErr != nil {
		b.Fatal(servingErr)
	}
	return servingGBT, servingMLP
}

// benchKernelShapServing explains a rotating test instance per
// iteration with one shared Kernel, as the registry serves a miss.
func benchKernelShapServing(b *testing.B, p *core.Pipeline) {
	k := &shap.Kernel{Model: p.Model, Background: p.Background, NumSamples: p.ShapSampleBudget(), Seed: p.Seed}
	xs := p.Test.X[:40]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Explain(context.Background(), xs[i%len(xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelShapGBTServing(b *testing.B) {
	gbt, _ := servingPipelines(b)
	benchKernelShapServing(b, gbt)
}

func BenchmarkKernelShapMLPServing(b *testing.B) {
	_, mlp := servingPipelines(b)
	benchKernelShapServing(b, mlp)
}

// ─── method-registry dispatch overhead ──────────────────────────────────
//
// The explanation plane (PR 3) routes every explain through the xai
// method registry and the pipeline's per-(method, params) explainer
// cache. This pair measures that dispatch against the PR 2 direct path
// (a prebuilt explainer invoked immediately): the delta is the price of
// per-request method selection, and it must stay noise against the
// explanation itself.

var (
	dispatchOnce sync.Once
	dispatchPipe *core.Pipeline
	dispatchErr  error
)

func dispatchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	perfModels(b)
	dispatchOnce.Do(func() {
		dispatchPipe, dispatchErr = core.NewPipeline(core.ModelForest, perfDS, 2)
	})
	if dispatchErr != nil {
		b.Fatal(dispatchErr)
	}
	return dispatchPipe
}

// BenchmarkExplainDispatchDirect: prebuilt TreeSHAP explainer, no
// registry in the loop (the PR 2 serving hot path).
func BenchmarkExplainDispatchDirect(b *testing.B) {
	p := dispatchPipeline(b)
	e := &treeshap.Explainer{Model: p.Model.(*forest.RandomForest), Names: p.Train.Names}
	x := p.Test.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(context.Background(), x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainDispatchRegistry resolves the method through
// Pipeline.ExplainerFor every iteration — registry lookup, option
// normalization, cache-key fingerprint, LRU hit — before explaining.
func BenchmarkExplainDispatchRegistry(b *testing.B) {
	p := dispatchPipeline(b)
	x := p.Test.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _, err := p.ExplainerFor("treeshap", xai.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Explain(context.Background(), x); err != nil {
			b.Fatal(err)
		}
	}
}
