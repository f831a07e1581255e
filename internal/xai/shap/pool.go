// Pooled scratch buffers for the KernelSHAP hot path. One Explain call
// allocates three large transient regions — the coalition-mask backing
// (budget × d bools), the coalition values, and either the perturbed-row
// block (generic evaluator) or the per-background accumulator and table
// scratch (masked tree evaluator). Under a serving workload those are
// re-allocated for every request; sync.Pool recycles them across calls
// and across the progressive estimator's blocks.
//
// Zeroing discipline: the mask backing MUST be cleared before a draw —
// sampleCoalitionsBuf only sets true bits (complement masks overwrite
// fully, primary masks do not), so stale bits from a previous draw would
// corrupt the coalition distribution. The treefast accumulator and
// coalition columns MUST be cleared because they are written with += and
// |=, and the dedup hash table because 0 marks an empty slot. The
// generic evaluator's row and prediction buffers, and the coalition
// values, are fully overwritten on every use and are handed out dirty.
package shap

import (
	"math/rand"
	"slices"
	"sync"

	"nfvxai/internal/mat"
)

// coalitionBuf holds one sampling draw's storage: the flat bool backing
// the masks are carved from, the mask and weight headers, the
// coalition-value vector sized to the draw, and the draw's small
// per-call scratch (size distribution and permutation).
type coalitionBuf struct {
	backing []bool
	masks   [][]bool
	weights []float64
	vals    []float64
	sizeW   []float64
	perm    []int

	// Deduplication scratch (distinct): the distinct masks in first-seen
	// order, each draw's index into them, their values, and the
	// open-addressing hash table over them (slot = distinct index + 1,
	// 0 = empty).
	uniq  [][]bool
	rep   []int32
	uvals []float64
	slots []int32
}

var coalitionPool = sync.Pool{New: func() any { return new(coalitionBuf) }}

func getCoalitionBuf() *coalitionBuf { return coalitionPool.Get().(*coalitionBuf) }

// release returns the buffer to the pool. The caller must be done with
// every mask, weight and value slice handed out from it: they alias the
// pooled storage and will be scribbled over by the next draw.
func (b *coalitionBuf) release() { coalitionPool.Put(b) }

// valsFor returns a coalition-value slice of length n. Contents are
// undefined; every evaluator writes all n entries before reading any.
func (b *coalitionBuf) valsFor(n int) []float64 {
	if cap(b.vals) < n {
		b.vals = make([]float64, n)
	}
	return b.vals[:n]
}

// uvalsFor is valsFor for the distinct coalitions' values.
func (b *coalitionBuf) uvalsFor(n int) []float64 {
	if cap(b.uvals) < n {
		b.uvals = make([]float64, n)
	}
	return b.uvals[:n]
}

// distinct returns the distinct masks in first-seen order (headers
// aliasing masks) and, for each mask, the index of its distinct copy.
// Both alias the buffer until release.
func (b *coalitionBuf) distinct(masks [][]bool) ([][]bool, []int32) {
	size := 1
	for size < 2*len(masks) {
		size <<= 1
	}
	if cap(b.slots) < size {
		b.slots = make([]int32, size)
	}
	slots := b.slots[:size]
	clear(slots)
	if cap(b.rep) < len(masks) {
		b.rep = make([]int32, len(masks))
	}
	rep := b.rep[:len(masks)]
	uniq := b.uniq[:0]
	for i, m := range masks {
		h := maskHash(m) & uint64(size-1)
		for {
			s := slots[h]
			if s == 0 {
				uniq = append(uniq, m)
				slots[h] = int32(len(uniq))
				rep[i] = int32(len(uniq) - 1)
				break
			}
			if slices.Equal(uniq[s-1], m) {
				rep[i] = s - 1
				break
			}
			h = (h + 1) & uint64(size-1)
		}
	}
	b.uniq = uniq
	return uniq, rep
}

// maskHash mixes the mask's bits, 64 features per word.
func maskHash(m []bool) uint64 {
	h := uint64(len(m))
	for lo := 0; lo < len(m); lo += 64 {
		var w uint64
		for j, on := range m[lo:min(lo+64, len(m))] {
			if on {
				w |= 1 << uint(j)
			}
		}
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// evalBuf is the generic batched evaluator's block scratch: the flat
// row backing, the row headers re-carved per call (d varies between
// models sharing the pool), the prediction vector, and the kept-feature
// index list rebuilt per coalition.
type evalBuf struct {
	backing []float64
	rows    [][]float64
	preds   []float64
	kept    []int
}

var evalPool = sync.Pool{New: func() any { return new(evalBuf) }}

// accPool recycles the masked tree evaluator's (background × coalition)
// accumulator — the single largest allocation of a forest Explain.
var accPool = sync.Pool{New: func() any { return new([]float64) }}

// getAcc returns a zeroed accumulator of length n (it is accumulated
// into with +=, so stale sums must be cleared).
func getAcc(n int) *[]float64 {
	p := accPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	} else {
		*p = (*p)[:n]
		clear(*p)
	}
	return p
}

func putAcc(p *[]float64) { accPool.Put(p) }

// treeScratch is the masked tree evaluator's per-call storage besides
// the accumulator: the divergence tree (four parallel arrays grown by
// append to the largest (tree, background) reduction seen), the
// per-feature coalition columns, the table index words, the 2^8-entry
// value table, and the feature → table-bit map with its inverse.
type treeScratch struct {
	r     reduced
	cols  []uint64 // d × nw words; byte ci%8 of word ci/8 is 1 when masks[ci] keeps the feature
	idx   []uint64 // nw words of byte-per-coalition table indices
	table [1 << maxTableBits]float64
	bit   []int8 // feature → local table bit; all -1 between trees
	feats []int32
}

var treePool = sync.Pool{New: func() any { return new(treeScratch) }}

// getTreeScratch returns scratch sized for d features and nw coalition
// words. Columns are set by setColumns; idx and table are fully written
// before each read; bit comes back all -1 (fillTable restores it).
func getTreeScratch(d, nw int) *treeScratch {
	s := treePool.Get().(*treeScratch)
	if cap(s.cols) < d*nw {
		s.cols = make([]uint64, d*nw)
	}
	s.cols = s.cols[:d*nw]
	if cap(s.idx) < nw {
		s.idx = make([]uint64, nw)
	}
	s.idx = s.idx[:nw]
	if cap(s.bit) < d {
		s.bit = make([]int8, d)
		for i := range s.bit {
			s.bit[i] = -1
		}
	}
	s.bit = s.bit[:d]
	return s
}

func putTreeScratch(s *treeScratch) { treePool.Put(s) }

// setColumns transposes the masks into per-feature byte columns.
func (s *treeScratch) setColumns(masks [][]bool) {
	clear(s.cols)
	nw := len(s.idx)
	for ci, m := range masks {
		w, lane := ci>>3, uint(ci&7)*8
		for f, on := range m {
			if on {
				s.cols[f*nw+w] |= 1 << lane
			}
		}
	}
}

// seededRand is a pooled deterministic rng: the source is re-seeded on
// checkout through the rand.Source interface, which resets its state
// exactly as rand.NewSource(seed) would, so the value stream for a given
// seed is identical to a freshly built rand.New(rand.NewSource(seed)) —
// pooling never changes which coalitions a seed draws.
type seededRand struct {
	src rand.Source
	*rand.Rand
}

var rngPool = sync.Pool{New: func() any {
	src := rand.NewSource(0)
	return &seededRand{src: src, Rand: rand.New(src)}
}}

func getRNG(seed int64) *seededRand {
	r := rngPool.Get().(*seededRand)
	r.src.Seed(seed)
	return r
}

func putRNG(r *seededRand) { rngPool.Put(r) }

// solveBuf holds the WLS design matrix, target and solution scratch for
// solvePhi. The attribution vector itself is excluded: it escapes to the
// caller and must be a fresh allocation.
type solveBuf struct {
	a   *mat.Dense
	b   []float64
	sol []float64
}

var solvePool = sync.Pool{New: func() any { return &solveBuf{a: mat.NewDense(1, 1)} }}
