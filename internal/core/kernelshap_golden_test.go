package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernelshap_golden.json from the current code")

// goldenPath holds KernelSHAP attributions recorded before the masked
// table evaluator, the blocked MLP kernel and coalition deduplication
// landed. Every float is stored as a hex literal so the comparison is on
// exact bits: those optimizations promise unchanged explanations, not
// close ones.
var goldenPath = filepath.Join("testdata", "kernelshap_golden.json")

type goldenAttr struct {
	Model    string   `json:"model"`
	Instance int      `json:"instance"`
	Base     string   `json:"base"`
	Value    string   `json:"value"`
	Phi      []string `json:"phi"`
}

// goldenCases covers the three KernelSHAP evaluators at serving shapes:
// GBT classification (masked trees under the sigmoid link), a depth-10
// random forest (masked trees with wide divergence trees) and the
// standardized MLP (generic batched evaluator). All sample 1024
// coalitions, so deduplication is in play.
var goldenCases = []struct {
	name     string
	scenario func() Scenario
	target   telemetry.TargetKind
	kind     ModelKind
}{
	{"nat/gbt/violation", NATScenario, telemetry.TargetViolation, ModelGBT},
	{"web/rf/util", WebScenario, telemetry.TargetBottleneckUtil, ModelForest},
	{"web/mlp/util", WebScenario, telemetry.TargetBottleneckUtil, ModelMLP},
}

var (
	goldenOnce  sync.Once
	goldenPipes []*Pipeline
	goldenErr   error
)

func goldenPipelines(t *testing.T) []*Pipeline {
	t.Helper()
	goldenOnce.Do(func() {
		for _, c := range goldenCases {
			ds, err := c.scenario().GenerateDataset(1, 1, c.target)
			if err != nil {
				goldenErr = err
				return
			}
			p, err := NewPipeline(c.kind, ds, 1)
			if err != nil {
				goldenErr = err
				return
			}
			goldenPipes = append(goldenPipes, p)
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenPipes
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func computeGolden(t *testing.T) []goldenAttr {
	t.Helper()
	var out []goldenAttr
	for ci, p := range goldenPipelines(t) {
		e, _, err := p.ExplainerFor("kernelshap", xai.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			a, err := e.Explain(context.Background(), p.Test.X[i])
			if err != nil {
				t.Fatal(err)
			}
			g := goldenAttr{Model: goldenCases[ci].name, Instance: i, Base: hexFloat(a.Base), Value: hexFloat(a.Value)}
			for _, v := range a.Phi {
				g.Phi = append(g.Phi, hexFloat(v))
			}
			out = append(out, g)
		}
	}
	return out
}

// TestKernelShapGolden reproduces the recorded attributions bit for bit.
// Regenerate (only when an explanation change is intended) with
//
//	go test ./internal/core -run TestKernelShapGolden -update
func TestKernelShapGolden(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenAttr
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d attributions, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		where := fmt.Sprintf("%s instance %d", w.Model, w.Instance)
		if g.Model != w.Model || g.Instance != w.Instance {
			t.Fatalf("case %d is %s/%d, golden has %s", i, g.Model, g.Instance, where)
		}
		if g.Base != w.Base || g.Value != w.Value {
			t.Errorf("%s: base/value %s/%s, golden %s/%s", where, g.Base, g.Value, w.Base, w.Value)
		}
		if len(g.Phi) != len(w.Phi) {
			t.Fatalf("%s: %d features, golden has %d", where, len(g.Phi), len(w.Phi))
		}
		for j := range w.Phi {
			if g.Phi[j] != w.Phi[j] {
				t.Errorf("%s: phi[%d] = %s, golden %s", where, j, g.Phi[j], w.Phi[j])
			}
		}
	}
}

// TestScaledPredictBatchAllocs: the standardizing wrapper scales a batch
// into pooled scratch, so its allocations do not grow with the row count
// (it used to allocate a header slice plus one row per instance), and
// its output matches Predict bit for bit.
func TestScaledPredictBatchAllocs(t *testing.T) {
	p := goldenPipelines(t)[2]
	sm, ok := p.Model.(*scaledModel)
	if !ok {
		t.Fatalf("%s model is %T, want *scaledModel", goldenCases[2].name, p.Model)
	}
	X := p.Train.X[:700]
	out := make([]float64, len(X))
	sm.PredictBatch(X, out)
	for i, x := range X {
		if out[i] != sm.Predict(x) {
			t.Fatalf("row %d: PredictBatch %v != Predict %v", i, out[i], sm.Predict(x))
		}
	}
	if avg := testing.AllocsPerRun(20, func() { sm.PredictBatch(X, out) }); avg > 20 {
		t.Fatalf("PredictBatch of %d rows allocates %.0f objects, want a per-call constant (≤ 20)", len(X), avg)
	}
}
