package bpred

import (
	"fmt"
	"math/bits"
)

// TAGE (TAgged GEometric history length) predictor after Seznec: a
// bimodal base plus tagged components indexed by geometrically growing
// history lengths. The longest-history matching component provides the
// prediction; allocation on mispredict moves hard branches into longer
// history components.
type TAGE struct {
	name     string
	base     []ctr2
	baseMask uint64

	comps []tageComp

	// hist is the direction history as a ring buffer: hist[head] is the
	// newest direction, hist[head+i] the one i branches older (uint8
	// arithmetic wraps the index). Every component's folds read it.
	hist [histRing]uint8
	head uint8

	// prediction bookkeeping between Predict and Update
	provider   int // component index (-1 = base)
	altPred    bool
	provPred   bool
	provIdx    uint64
	useAltOnNA int8 // counter favouring alt prediction for fresh entries
	sizeBits   int
	rng        uint32 // deterministic PRNG for allocation tie-break
}

type tageEntry struct {
	tag uint16
	ctr int8 // -4..3, ≥0 predicts taken
	use uint8
}

type tageComp struct {
	entries []tageEntry
	mask    uint64
	width   uint // index bits: log2(len(entries))
	histLen int
	tagBits uint

	// Folded history registers for the index and the two tag hashes,
	// updated in O(1) per branch.
	idxFold, tagFold, tagFold2 foldReg

	// idx and tag are this branch's hashes, set by Predict and reused
	// by Update (the Predictor contract pairs them on the same pc).
	idx uint64
	tag uint16
}

// histRing is the history ring's length. It exceeds every component's
// history length (180 bits at the 64KB budget) and makes a uint8 head
// wrap for free.
const histRing = 256

// foldReg holds the most recent n history bits folded into w bits: the
// bits are cut, newest first, into w-bit chunks whose first bit is the
// chunk's most significant, the last partial chunk right-aligned, and
// the chunks XORed together. Shifting one direction into the history
// rotates every full-chunk bit right by one within the register, moves
// the partial chunk right by one, drops the oldest bit and enters the
// new one; push does exactly that in O(1).
type foldReg struct {
	val  uint64
	w    uint   // register width in bits
	in   uint   // bit the newest direction enters at
	out  uint8  // history position n-1: the bit that leaves
	wrap uint8  // history position ⌊n/w⌋·w−1: last bit of the last full chunk
	fix  uint64 // bits the wrap bit toggles (0 unless a partial chunk follows full ones)
}

func newFoldReg(n int, w uint) foldReg {
	q, r := uint(n)/w, uint(n)%w
	f := foldReg{w: w, in: w - 1, out: uint8(n - 1)}
	if q == 0 {
		// The whole history is one right-aligned partial chunk.
		f.in = r - 1
	} else if r > 0 {
		// The wrap bit rotates to the top of the register, but belongs at
		// the top of the partial chunk.
		f.wrap = uint8(q*w - 1)
		f.fix = 1<<(w-1) | 1<<(r-1)
	}
	return f
}

// push folds taken into the register. The oldest bit (and, when a
// partial chunk follows full ones, the wrap bit) sits at bit 0 before
// the rotation, so the rotation needs at most three single-bit
// corrections before the new bit enters. It must run before the ring
// shifts: out and wrap name positions of the old history.
func (f *foldReg) push(t *TAGE, taken uint64) {
	v := f.val>>1 | (f.val&1)<<(f.w-1)
	v ^= uint64(t.hist[t.head+f.out]) << (f.w - 1)
	v ^= uint64(t.hist[t.head+f.wrap]) * f.fix
	f.val = v ^ taken<<f.in
}

// tageGeometry describes a budget point.
type tageGeometry struct {
	baseEntries int
	compEntries int
	histLens    []int
	tagBits     uint
}

// NewTAGE builds a TAGE predictor at one of the supported budgets
// (8192 or 65536 bytes, the paper's 8KB and 64KB configurations), or
// any power-of-two budget in between for ablations.
func NewTAGE(sizeBytes int) (*TAGE, error) {
	var g tageGeometry
	switch {
	case sizeBytes == 8<<10:
		g = tageGeometry{baseEntries: 1 << 12, compEntries: 1 << 10, histLens: []int{5, 14, 36, 90}, tagBits: 9}
	case sizeBytes == 64<<10:
		g = tageGeometry{baseEntries: 1 << 14, compEntries: 1 << 12, histLens: []int{5, 14, 36, 90, 180}, tagBits: 11}
	case sizeBytes > 0 && sizeBytes&(sizeBytes-1) == 0 && sizeBytes >= 1<<10 && sizeBytes <= 1<<20:
		// Generic scaling for ablation studies.
		scale := 0
		for s := 8 << 10; s < sizeBytes; s <<= 1 {
			scale++
		}
		for s := 8 << 10; s > sizeBytes; s >>= 1 {
			scale--
		}
		base := 1 << 12
		comp := 1 << 10
		if scale > 0 {
			base <<= uint(scale)
			comp <<= uint(scale)
		} else {
			base >>= uint(-scale)
			comp >>= uint(-scale)
		}
		if base < 64 {
			base = 64
		}
		if comp < 64 {
			comp = 64
		}
		g = tageGeometry{baseEntries: base, compEntries: comp, histLens: []int{5, 14, 36, 90}, tagBits: 9}
	default:
		return nil, fmt.Errorf("bpred: unsupported TAGE budget %d bytes", sizeBytes)
	}
	t := &TAGE{
		name:     fmt.Sprintf("tage-%dKB", sizeBytes/1024),
		base:     make([]ctr2, g.baseEntries),
		baseMask: uint64(g.baseEntries - 1),
		rng:      0x2545F491,
	}
	width := uint(bits.Len(uint(g.compEntries - 1)))
	for _, hl := range g.histLens {
		t.comps = append(t.comps, tageComp{
			entries:  make([]tageEntry, g.compEntries),
			mask:     uint64(g.compEntries - 1),
			width:    width,
			histLen:  hl,
			tagBits:  g.tagBits,
			idxFold:  newFoldReg(hl, width),
			tagFold:  newFoldReg(hl, g.tagBits),
			tagFold2: newFoldReg(hl, g.tagBits-1),
		})
	}
	t.sizeBits = g.baseEntries*2 + len(g.histLens)*g.compEntries*(int(g.tagBits)+3+2)
	return t, nil
}

// Name implements Predictor.
func (t *TAGE) Name() string { return t.name }

// SizeBits implements Predictor.
func (t *TAGE) SizeBits() int { return t.sizeBits }

// hash computes the component's index and tag for pc from its folded
// registers.
func (c *tageComp) hash(pc uint64) {
	c.idx = ((pc >> 2) ^ (pc >> (2 + c.width)) ^ c.idxFold.val) & c.mask
	c.tag = uint16(((pc >> 2) ^ c.tagFold.val ^ c.tagFold2.val<<1) & (1<<c.tagBits - 1))
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	t.provider = -1
	alt := -1
	for ci := len(t.comps) - 1; ci >= 0; ci-- {
		c := &t.comps[ci]
		c.hash(pc)
		if c.entries[c.idx].tag == c.tag {
			if t.provider == -1 {
				t.provider = ci
				t.provIdx = c.idx
			} else if alt == -1 {
				alt = ci
			}
		}
	}
	basePred := t.base[(pc>>2)&t.baseMask].taken()
	t.altPred = basePred
	if alt != -1 {
		t.altPred = t.comps[alt].entries[t.comps[alt].idx].ctr >= 0
	}
	if t.provider == -1 {
		t.provPred = basePred
		return basePred
	}
	e := &t.comps[t.provider].entries[t.provIdx]
	t.provPred = e.ctr >= 0
	// Weak fresh entries defer to the alternate prediction when the
	// use-alt counter suggests so.
	if e.use == 0 && (e.ctr == 0 || e.ctr == -1) && t.useAltOnNA >= 0 {
		return t.altPred
	}
	return t.provPred
}

func (t *TAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
}

// Update implements Predictor.
func (t *TAGE) Update(pc uint64, taken bool) {
	pred := t.provPred
	if t.provider == -1 {
		pred = t.altPred
	}
	mispred := pred != taken

	if t.provider >= 0 {
		e := &t.comps[t.provider].entries[t.provIdx]
		// Track whether alt would have been the better choice for weak
		// entries.
		if e.use == 0 && (e.ctr == 0 || e.ctr == -1) && t.provPred != t.altPred {
			if t.altPred == taken && t.useAltOnNA < 7 {
				t.useAltOnNA++
			} else if t.altPred != taken && t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		if t.provPred != t.altPred {
			if t.provPred == taken {
				if e.use < 3 {
					e.use++
				}
			} else if e.use > 0 {
				e.use--
			}
		}
	} else {
		i := (pc >> 2) & t.baseMask
		t.base[i] = t.base[i].update(taken)
	}

	// Allocate a new entry in a longer-history component on mispredict.
	if mispred && t.provider < len(t.comps)-1 {
		start := t.provider + 1
		allocated := false
		for ci := start; ci < len(t.comps); ci++ {
			c := &t.comps[ci]
			e := &c.entries[c.idx]
			if e.use == 0 {
				e.tag = c.tag
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay a random candidate's usefulness so allocation
			// eventually succeeds on persistent mispredictions.
			c := &t.comps[start+int(t.nextRand())%(len(t.comps)-start)]
			e := &c.entries[c.idx]
			if e.use > 0 {
				e.use--
			}
		}
	}

	// Fold the direction into every register, then shift it into the
	// ring.
	var b uint64
	if taken {
		b = 1
	}
	for ci := range t.comps {
		c := &t.comps[ci]
		c.idxFold.push(t, b)
		c.tagFold.push(t, b)
		c.tagFold2.push(t, b)
	}
	t.head--
	t.hist[t.head] = uint8(b)
}

// Reset implements Predictor.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = 0
	}
	for ci := range t.comps {
		c := &t.comps[ci]
		for i := range c.entries {
			c.entries[i] = tageEntry{}
		}
		c.idxFold.val, c.tagFold.val, c.tagFold2.val = 0, 0, 0
	}
	t.hist = [histRing]uint8{}
	t.head = 0
	t.useAltOnNA = 0
	t.rng = 0x2545F491
}
