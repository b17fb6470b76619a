package bpred

import (
	"fmt"
	"testing"
)

// foldHist is the reference fold the incremental registers must track:
// it folds the most recent n bits of ghist (newest first) into width
// bits, bit by bit, the way TAGE once recomputed it on every Predict.
func foldHist(ghist []bool, n int, width uint) uint64 {
	var folded, chunk uint64
	var used uint
	for i := 0; i < n; i++ {
		chunk <<= 1
		if ghist[i] {
			chunk |= 1
		}
		used++
		if used == width {
			folded ^= chunk
			chunk, used = 0, 0
		}
	}
	if used > 0 {
		folded ^= chunk
	}
	return folded & ((1 << width) - 1)
}

// oracle shadows a TAGE's direction history as the plain newest-first
// shift register the folds are defined over.
type oracle struct {
	ghist []bool
}

func newOracle(t *TAGE) *oracle {
	longest := 0
	for _, c := range t.comps {
		longest = max(longest, c.histLen)
	}
	return &oracle{ghist: make([]bool, longest)}
}

func (o *oracle) push(taken bool) {
	copy(o.ghist[1:], o.ghist[:len(o.ghist)-1])
	o.ghist[0] = taken
}

// check compares every component's three folded registers with the
// oracle fold of the same history, and (when pc is a just-predicted
// branch) the index and tag Predict derived from them.
func (o *oracle) check(t *TAGE, pc uint64, predicted bool) string {
	for ci := range t.comps {
		c := &t.comps[ci]
		for _, r := range []struct {
			name string
			got  uint64
			w    uint
		}{
			{"index", c.idxFold.val, c.width},
			{"tag", c.tagFold.val, c.tagBits},
			{"tag2", c.tagFold2.val, c.tagBits - 1},
		} {
			if want := foldHist(o.ghist, c.histLen, r.w); r.got != want {
				return fmt.Sprintf("comp %d (hist %d) %s fold: got %#x, want %#x", ci, c.histLen, r.name, r.got, want)
			}
		}
		if !predicted {
			continue
		}
		wantIdx := ((pc >> 2) ^ (pc >> (2 + c.width)) ^ foldHist(o.ghist, c.histLen, c.width)) & c.mask
		h := foldHist(o.ghist, c.histLen, c.tagBits)
		h2 := foldHist(o.ghist, c.histLen, c.tagBits-1) << 1
		wantTag := uint16(((pc >> 2) ^ h ^ h2) & ((1 << c.tagBits) - 1))
		if c.idx != wantIdx || c.tag != wantTag {
			return fmt.Sprintf("comp %d: Predict hashed idx %#x tag %#x, want %#x %#x", ci, c.idx, c.tag, wantIdx, wantTag)
		}
	}
	return ""
}

// testBranch is one resolved conditional branch.
type testBranch struct {
	pc    uint64
	taken bool
}

// branchTrace builds a deterministic n-branch stream shaped like an
// encoder's: randomly chosen kernels, each a counted loop whose body
// holds an alternating branch, a biased data-dependent branch and the
// loop-closing branch (splitmix64-driven, no math/rand).
func branchTrace(seed uint64, n int) []testBranch {
	s := seed
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	out := make([]testBranch, 0, n+64)
	for len(out) < n {
		k := next() % 24
		pc := 0x400000 + k*0x40
		trip := 2 + int(k%8)*5
		for j := 0; j < trip; j++ {
			out = append(out,
				testBranch{pc, j%2 == 0},
				testBranch{pc + 4, next()&7 != 0},
				testBranch{pc + 8, j < trip-1})
		}
	}
	return out[:n]
}

// tageOf unwraps the TAGE inside a TAGE or TAGE-L predictor.
func tageOf(t *testing.T, p Predictor) *TAGE {
	t.Helper()
	switch p := p.(type) {
	case *TAGE:
		return p
	case *TAGEL:
		return p.tage
	}
	t.Fatalf("%s is not a TAGE predictor", p.Name())
	return nil
}

// foldPredictors builds every budget NewTAGE accepts at its extremes
// and paper points, plus the TAGE-L hybrid.
func foldPredictors(t *testing.T) []Predictor {
	t.Helper()
	var out []Predictor
	for _, size := range []int{1 << 10, 8 << 10, 64 << 10, 1 << 20} {
		p, err := NewTAGE(size)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	p, err := NewTAGEL(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, p)
}

// TestTAGEFoldsMatchOracle replays a 50k-branch stream through each
// budget and checks, after every branch, each component's index and
// tag folds against the bit-by-bit oracle fold — including components
// whose history is shorter than the fold width (5 bits against a
// 7..17-bit index) and the 180-bit history of the 64KB budget.
func TestTAGEFoldsMatchOracle(t *testing.T) {
	const n = 50_000
	for _, p := range foldPredictors(t) {
		tg := tageOf(t, p)
		o := newOracle(tg)
		for i, br := range branchTrace(1, n) {
			p.Predict(br.pc)
			if msg := o.check(tg, br.pc, true); msg != "" {
				t.Fatalf("%s branch %d: %s", p.Name(), i, msg)
			}
			p.Update(br.pc, br.taken)
			o.push(br.taken)
			if msg := o.check(tg, 0, false); msg != "" {
				t.Fatalf("%s after branch %d: %s", p.Name(), i, msg)
			}
		}
	}
}

// TestTAGEResetReplays checks Reset returns a trained predictor to the
// cold state: replaying a stream after Reset gives the same prediction
// at every branch as a fresh predictor does.
func TestTAGEResetReplays(t *testing.T) {
	const n = 20_000
	for _, name := range []string{"tage-8KB", "tage-64KB", "tage-l-8KB"} {
		fresh, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		used, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range branchTrace(2, n) {
			used.Predict(br.pc)
			used.Update(br.pc, br.taken)
		}
		used.Reset()
		for i, br := range branchTrace(3, n) {
			if pf, pu := fresh.Predict(br.pc), used.Predict(br.pc); pf != pu {
				t.Fatalf("%s branch %d: fresh predicts %v, reset predicts %v", name, i, pf, pu)
			}
			fresh.Update(br.pc, br.taken)
			used.Update(br.pc, br.taken)
		}
	}
}

// TestTAGEPinnedMispredicts pins each budget's mispredict count on the
// differential stream. The counts were produced by the bit-by-bit
// fold implementation; any change to hashing, allocation or history
// handling moves them.
func TestTAGEPinnedMispredicts(t *testing.T) {
	want := map[string]int{
		"tage-1KB":    4552,
		"tage-8KB":    3862,
		"tage-64KB":   3825,
		"tage-1024KB": 3809,
		"tage-l-8KB":  3863,
	}
	for _, p := range foldPredictors(t) {
		miss := 0
		for _, br := range branchTrace(1, 50_000) {
			if p.Predict(br.pc) != br.taken {
				miss++
			}
			p.Update(br.pc, br.taken)
		}
		if miss != want[p.Name()] {
			t.Errorf("%s: %d mispredicts, want %d", p.Name(), miss, want[p.Name()])
		}
	}
}

// FuzzTAGEFolds drives TAGE with arbitrary direction and PC bytes and
// requires the incremental folds to equal the oracle after every
// branch. The first byte picks the budget.
func FuzzTAGEFolds(f *testing.F) {
	f.Add([]byte{0, 0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte{1, 0x13, 0x37, 0xC0, 0xDE, 0x01, 0x80, 0x7F})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x0F})
	f.Add([]byte{3, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80})
	budgets := []int{1 << 10, 8 << 10, 64 << 10, 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<12 {
			return // bound per-input work, not coverage
		}
		tg, err := NewTAGE(budgets[int(data[0])%len(budgets)])
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(tg)
		// Each byte is one branch: its low bit the direction, the rest
		// the PC. Repeat the input so the 180-bit history fills and
		// wraps the ring more than once.
		for rep := 0; rep < 1+(2*histRing)/len(data); rep++ {
			for i, b := range data[1:] {
				pc := 0x400000 + uint64(b>>1)*4
				tg.Predict(pc)
				if msg := o.check(tg, pc, true); msg != "" {
					t.Fatalf("rep %d byte %d: %s", rep, i, msg)
				}
				taken := b&1 == 1
				tg.Update(pc, taken)
				o.push(taken)
			}
		}
		if msg := o.check(tg, 0, false); msg != "" {
			t.Fatal(msg)
		}
	})
}
