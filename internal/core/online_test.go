package core

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dvfs"
)

// walkLadder is Algorithm 2 stated plainly: from the top of the ladder,
// the first rung both checks accept. SelectFreq must settle on the same
// rung.
func walkLadder(pm PolicyModel, draw, ahead func(dvfs.Freq) bool) (dvfs.Freq, bool) {
	if pm.Policy == PolicyNone {
		return pm.Ladder.Max(), true
	}
	for i := len(pm.Ladder) - 1; i >= 0; i-- {
		if f := pm.Ladder[i]; draw(f) && ahead(f) {
			return f, true
		}
		if !pm.Policy.CanScale() {
			break
		}
	}
	return 0, false
}

// FuzzSelectFreqMatchesLadderWalk holds the bracketed search to the
// plain walk: a random ascending ladder of 1–16 rungs, a draw check that
// refuses every rung from a random one up (monotone, as SelectFreq
// requires) and an ahead check of any shape, under every policy. The
// draw check is called at most 2+⌈log2 n⌉ times, and only ever with a
// rung of the ladder.
func FuzzSelectFreqMatchesLadderWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, rungs, cut uint8, aheadMask uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rungs)%16
		ladder := make(dvfs.Ladder, n)
		f0 := dvfs.Freq(800 + rng.Intn(400))
		for i := range ladder {
			ladder[i] = f0
			f0 += dvfs.Freq(1 + rng.Intn(300))
		}
		// draw accepts exactly the rungs below ladder[k]; k == n accepts all.
		k := int(cut) % (n + 1)
		rung := func(f dvfs.Freq) int {
			i := sort.Search(n, func(i int) bool { return ladder[i] >= f })
			if i == n || ladder[i] != f {
				t.Fatalf("predicate called with %v, not a rung of %v", f, ladder)
			}
			return i
		}
		draws := 0
		draw := func(f dvfs.Freq) bool { draws++; return rung(f) < k }
		ahead := func(f dvfs.Freq) bool { return aheadMask>>rung(f)&1 == 1 }
		most := 2 + bits.Len(uint(n-1)) // 2 + ⌈log2 n⌉

		for _, p := range []Policy{PolicyNone, PolicyShut, PolicyDvfs, PolicyMix, PolicyIdle} {
			pm := PolicyModel{Policy: p, Ladder: ladder}
			wantF, wantOK := walkLadder(pm, draw, ahead)
			draws = 0
			gotF, gotOK := SelectFreq(pm, draw, ahead)
			if gotF != wantF || gotOK != wantOK {
				t.Fatalf("%v on %v, draw refusing rung %d up, ahead %016b: SelectFreq = %v,%v, walk = %v,%v",
					p, ladder, k, aheadMask, gotF, gotOK, wantF, wantOK)
			}
			if draws > most {
				t.Fatalf("%v on %d rungs: %d draw calls, want at most %d", p, n, draws, most)
			}
		}
	})
}
