// Masked coalition evaluation for additive tree ensembles.
//
// A KernelSHAP perturbed row is always a two-source hybrid: feature j
// comes from x when the coalition mask holds j, from one background row b
// otherwise. For a fixed (tree, b) pair, a split node where x and b fall
// on the SAME side routes every hybrid the same way regardless of the
// mask — only the nodes where they diverge consult the mask at all. So
// per Explain we precompute, for every (tree, background) pair, a reduced
// "divergence tree" with the agreeing chains collapsed: its interior
// nodes carry just a feature index with an x-side and a b-side child, and
// its leaves carry the tree's prediction for that hybrid region. A pair
// whose paths never diverge collapses to a single constant.
//
// A divergence tree that tests k distinct features is a function of k
// mask bits only, so for k ≤ maxTableBits it becomes a table: entry t
// holds w_t·leaf for the leaf the tree reaches when local bit i of t says
// whether its i-th feature is kept. Each coalition's table index is built
// with shift/OR passes over per-feature coalition columns (one byte per
// coalition, eight coalitions per uint64 word), and one gather-add pass
// per tree adds the table entries into the per-background accumulators.
// That replaces a data-dependent pointer walk per coalition with k
// branch-free word passes and a streaming gather. The rare wider
// divergence tree (deep forests) keeps the per-coalition walk.
//
// Both paths add the same product w_t·leaf into the same accumulator in
// the same tree order, so the values are bit-identical to walking every
// coalition; the accumulated sums then reduce over background rows in row
// order exactly as the row-at-a-time evaluator does, up to the per-tree
// weight reassociation (≪ 1e-9).
//
// The fast path applies when the model decomposes as
// link(base + Σ w_t · tree_t(x)) with link = identity or the logistic
// sigmoid (random forests, gradient-boosted trees); the decomposition is
// verified numerically against Predict before use, and any mismatch
// falls back to the generic batched evaluator.

package shap

import (
	"context"
	"math"

	"nfvxai/internal/ml/tree"
	"nfvxai/internal/xai"
)

// componentEnsemble mirrors treeshap.Ensemble: the additive decomposition
// of a model as (trees, per-tree weights, base offset). Declared locally
// to keep shap importing only the tree package.
type componentEnsemble interface {
	ComponentTrees() ([]*tree.Tree, []float64, float64)
}

// maskedEvaluator is the per-Kernel state of the fast path.
type maskedEvaluator struct {
	trees []*tree.Tree
	w     []float64
	base  float64
	link  func(float64) float64 // nil = identity
}

// verifyTol is the relative reconstruction tolerance for accepting the
// additive decomposition.
const verifyTol = 1e-9

// newMaskedEvaluator inspects the model and returns a masked evaluator if
// the (link ∘ additive-trees) decomposition reproduces Predict on the
// probe rows, else nil.
func newMaskedEvaluator(k *Kernel) *maskedEvaluator {
	ce, ok := k.Model.(componentEnsemble)
	if !ok {
		return nil
	}
	trees, w, base := ce.ComponentTrees()
	if len(trees) == 0 || len(trees) != len(w) {
		return nil
	}
	probes := k.Background
	if len(probes) > 3 {
		probes = probes[:3]
	}
	for _, link := range []func(float64) float64{nil, stableSigmoid} {
		ok := true
		for _, p := range probes {
			raw := base
			for t, tr := range trees {
				raw += w[t] * tr.Predict(p)
			}
			if link != nil {
				raw = link(raw)
			}
			want := k.Model.Predict(p)
			if math.Abs(raw-want) > verifyTol*math.Max(1, math.Abs(want)) {
				ok = false
				break
			}
		}
		if ok {
			return &maskedEvaluator{trees: trees, w: w, base: base, link: link}
		}
	}
	return nil
}

func stableSigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// reduced is one (tree, background) divergence tree in flat preorder
// storage. feature[i] < 0 marks a leaf whose prediction is value[i];
// interior nodes route to xChild when the coalition mask keeps the
// feature (hybrid takes x's value) and to bChild otherwise.
type reduced struct {
	feature []int32
	xChild  []int32
	bChild  []int32
	value   []float64
}

func (r *reduced) reset() {
	r.feature = r.feature[:0]
	r.xChild = r.xChild[:0]
	r.bChild = r.bChild[:0]
	r.value = r.value[:0]
}

// build collapses the subtree at node j for the hybrid family (x, b) and
// returns the reduced index of the emitted node.
func (r *reduced) build(nodes []tree.Node, j int, x, b []float64) int32 {
	for {
		nd := nodes[j]
		if nd.IsLeaf() {
			id := int32(len(r.feature))
			r.feature = append(r.feature, -1)
			r.xChild = append(r.xChild, 0)
			r.bChild = append(r.bChild, 0)
			r.value = append(r.value, nd.Value)
			return id
		}
		dx := x[nd.Feature] <= nd.Threshold
		db := b[nd.Feature] <= nd.Threshold
		if dx == db {
			// Both sources agree: the mask is irrelevant here; collapse.
			if dx {
				j = nd.Left
			} else {
				j = nd.Right
			}
			continue
		}
		id := int32(len(r.feature))
		r.feature = append(r.feature, int32(nd.Feature))
		r.xChild = append(r.xChild, 0)
		r.bChild = append(r.bChild, 0)
		r.value = append(r.value, 0)
		xj, bj := nd.Left, nd.Right
		if !dx {
			xj, bj = nd.Right, nd.Left
		}
		xc := r.build(nodes, xj, x, b)
		bc := r.build(nodes, bj, x, b)
		r.xChild[id] = xc
		r.bChild[id] = bc
		return id
	}
}

// maxTableBits bounds the table path: 2^8 entries, and a local index
// that fits one byte lane.
const maxTableBits = 8

// walkAdd adds wt·leaf into row[ci] for every coalition by descending
// the divergence tree — the path for divergence trees too wide to table.
func (r *reduced) walkAdd(masks [][]bool, wt float64, row []float64) {
	feat, xc, bc, val := r.feature, r.xChild, r.bChild, r.value
	for ci, m := range masks {
		j := int32(0)
		f := feat[0]
		for f >= 0 {
			if m[f] {
				j = xc[j]
			} else {
				j = bc[j]
			}
			f = feat[j]
		}
		row[ci] += wt * val[j]
	}
}

// fillTable assigns table bits to the divergence tree's distinct
// features in preorder and writes table[t] = wt·leaf(t) for every local
// index t < 2^k. It reports false, leaving nothing assigned, when the
// tree tests more than maxTableBits features. bit maps a feature to its
// local bit (-1 = unassigned) and is restored before returning; feats
// receives the features in bit order.
func (s *treeScratch) fillTable(wt float64) bool {
	r := &s.r
	s.feats = s.feats[:0]
	for _, f := range r.feature {
		if f < 0 || s.bit[f] >= 0 {
			continue
		}
		if len(s.feats) == maxTableBits {
			s.clearBits()
			return false
		}
		s.bit[f] = int8(len(s.feats))
		s.feats = append(s.feats, f)
	}
	feat, xc, bc, val := r.feature, r.xChild, r.bChild, r.value
	for t := 0; t < 1<<len(s.feats); t++ {
		j := int32(0)
		f := feat[0]
		for f >= 0 {
			if t>>uint(s.bit[f])&1 != 0 {
				j = xc[j]
			} else {
				j = bc[j]
			}
			f = feat[j]
		}
		s.table[t] = wt * val[j]
	}
	s.clearBits()
	return true
}

func (s *treeScratch) clearBits() {
	for _, f := range s.feats {
		s.bit[f] = -1
	}
}

// tableAdd adds table[index(ci)] into row[ci] for every coalition, where
// index(ci) packs feats[i]'s column byte for ci into bit i. row spans
// whole words (its length is 8·len(s.idx)); lanes past the last
// coalition index table[0] and are never read back.
func (s *treeScratch) tableAdd(row []float64) {
	nw := len(s.idx)
	idx := s.idx
	copy(idx, s.cols[int(s.feats[0])*nw:])
	for b, f := range s.feats[1:] {
		col := s.cols[int(f)*nw : int(f+1)*nw]
		shift := uint(b + 1)
		for w := range idx {
			idx[w] |= col[w] << shift
		}
	}
	table := &s.table
	for w, word := range idx {
		r8 := (*[8]float64)(row[w*8:])
		r8[0] += table[uint8(word)]
		r8[1] += table[uint8(word>>8)]
		r8[2] += table[uint8(word>>16)]
		r8[3] += table[uint8(word>>24)]
		r8[4] += table[uint8(word>>32)]
		r8[5] += table[uint8(word>>40)]
		r8[6] += table[uint8(word>>48)]
		r8[7] += table[uint8(word>>56)]
	}
}

// evalCoalitions fills vals[ci] with the coalition value of masks[ci]
// (mean over background of the hybrid prediction). The accumulation
// order — trees in ensemble order per background row, background rows in
// order — matches the row-at-a-time evaluator, so results agree to within
// floating-point reassociation of the per-tree weights (≪ 1e-9).
// Cancellation is checked once per background row, the outer unit of work.
func (e *maskedEvaluator) evalCoalitions(ctx context.Context, x []float64, bg [][]float64, masks [][]bool, vals []float64) error {
	nc := len(masks)
	nb := len(bg)
	nw := (nc + 7) / 8
	stride := 8 * nw
	// acc[bi*stride+ci] accumulates Σ_t w_t·tree_t(hybrid); the bi-major
	// layout keeps each (tree, background) sweep writing one contiguous
	// stripe, padded to whole words for the table pass. Pooled (and
	// therefore pre-cleared — it is written with +=): this is the largest
	// allocation of a forest Explain, nb·nc floats per call.
	accp := getAcc(nb * stride)
	defer putAcc(accp)
	acc := *accp
	// Pooled divergence-tree, column and table storage: reset (not
	// reallocated) per (tree, background) pair, retained across calls.
	s := getTreeScratch(len(x), nw)
	defer putTreeScratch(s)
	s.setColumns(masks)
	for bi, b := range bg {
		if err := xai.Canceled(ctx, "shap"); err != nil {
			return err
		}
		row := acc[bi*stride : (bi+1)*stride]
		for ti, tr := range e.trees {
			wt := e.w[ti]
			s.r.reset()
			s.r.build(tr.Nodes, 0, x, b)
			if s.r.feature[0] < 0 {
				// x and b never diverge in this tree: constant contribution.
				v := wt * s.r.value[0]
				for ci := range row {
					row[ci] += v
				}
				continue
			}
			if s.fillTable(wt) {
				s.tableAdd(row)
			} else {
				s.r.walkAdd(masks, wt, row)
			}
		}
	}
	for ci := range vals {
		var sum float64
		for bi := 0; bi < nb; bi++ {
			v := e.base + acc[bi*stride+ci]
			if e.link != nil {
				v = e.link(v)
			}
			sum += v
		}
		vals[ci] = sum / float64(nb)
	}
	return nil
}
