package interp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/taint"
)

// naiveCtl is the scope stack as it was before it carried a summary: every
// read rescans the stack. It is the model the summary is checked against.
type naiveCtl struct {
	ctl      []ctlScope
	born     []int
	writeSeq int
	seqBase  int
	ctlBase  taint.Label
}

func (n *naiveCtl) regCtl(dst int) taint.Label {
	l := taint.None
	for _, s := range n.ctl {
		if !s.loopExit || (n.born[dst] >= n.seqBase && n.born[dst] < s.openSeq) {
			l |= s.label
		}
	}
	return l
}

func (n *naiveCtl) memCtl() taint.Label {
	l := n.ctlBase
	for _, s := range n.ctl {
		l |= s.label
	}
	return l
}

func (n *naiveCtl) write(dst int, wl taint.Label) taint.Label {
	wl |= n.regCtl(dst)
	if n.born[dst] < n.seqBase {
		n.born[dst] = n.writeSeq
	}
	n.writeSeq++
	return wl
}

func (n *naiveCtl) push(join int, label taint.Label, loopExit bool) {
	for i := range n.ctl {
		s := &n.ctl[i]
		if s.join == join && s.label == label && s.loopExit == loopExit {
			s.openSeq = n.writeSeq
			return
		}
	}
	n.ctl = append(n.ctl, ctlScope{join: join, label: label, loopExit: loopExit, openSeq: n.writeSeq})
}

func (n *naiveCtl) closeAt(blk int) {
	n.ctl = slices.DeleteFunc(n.ctl, func(s ctlScope) bool { return s.join == blk })
}

// begin is a clean return followed by the next activation on the frame.
func (n *naiveCtl) begin(ctlBase taint.Label, params int) {
	n.seqBase = n.writeSeq
	n.ctl = n.ctl[:0]
	n.ctlBase = ctlBase
	n.writeSeq = n.seqBase + 1
	for i := 0; i < params; i++ {
		n.born[i] = n.seqBase
	}
}

// TestCtlStateSummaryMatchesScan drives random push / closeAt / write /
// reset / begin sequences through ctlState and the naive scan. After every
// step the stack contents, born, the write sequence, memCtl and — for every
// register — the control label a write would receive must agree. Joins are
// drawn so that distinct ones collide in the 64-bit filter (j, j+64, j+128,
// and -1, which shares bit 63), and writes fall between pushes so that born
// values straddle loop scopes.
func TestCtlStateSummaryMatchesScan(t *testing.T) {
	const regs, params = 6, 2
	joins := []int{-1, 0, 1, 2, 63, 64, 65, 66, 127, 128, 129, 191}
	labels := []taint.Label{0, 1, 2, 4, 3, 8}

	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cs := &ctlState{born: make([]int, regs), seqBase: 1}
		cs.begin(taint.None, true, params)
		nv := &naiveCtl{born: make([]int, regs), seqBase: 1, writeSeq: 2}
		for i := 0; i < params; i++ {
			nv.born[i] = 1
		}

		agree := func(step int, op string) bool {
			if !slices.Equal(cs.ctl, nv.ctl) || !slices.Equal(cs.born, nv.born) || cs.writeSeq != nv.writeSeq {
				t.Errorf("seed %d step %d (%s): state diverged\n summary: %+v born %v seq %d\n scan:    %+v born %v seq %d",
					seed, step, op, cs.ctl, cs.born, cs.writeSeq, nv.ctl, nv.born, nv.writeSeq)
				return false
			}
			if got, want := cs.memCtl(), nv.memCtl(); got != want {
				t.Errorf("seed %d step %d (%s): memCtl = %b, scan says %b (stack %+v)", seed, step, op, got, want, cs.ctl)
				return false
			}
			// The summary is exactly what a rebuild from the stack gives (a
			// stale bound would still answer right, through the scan, but no
			// longer in O(1)); the filter may only keep bits too many.
			fresh := *cs
			fresh.summarize()
			if cs.plain != fresh.plain || cs.all != fresh.all || cs.loopMin != fresh.loopMin || cs.loopMax != fresh.loopMax || cs.joins&fresh.joins != fresh.joins {
				t.Errorf("seed %d step %d (%s): summary plain=%b all=%b loop=[%d,%d] joins=%x, a rebuild gives plain=%b all=%b loop=[%d,%d] joins=%x (stack %+v)",
					seed, step, op, cs.plain, cs.all, cs.loopMin, cs.loopMax, cs.joins, fresh.plain, fresh.all, fresh.loopMin, fresh.loopMax, fresh.joins, cs.ctl)
				return false
			}
			for dst := 0; dst < regs; dst++ {
				// write on a copy: the label a write of dst would get now.
				peek := *cs
				peek.born = slices.Clone(cs.born)
				if got, want := peek.write(int32(dst), taint.None), nv.regCtl(dst); got != want {
					t.Errorf("seed %d step %d (%s): control label of r%d = %b, scan says %b\n stack %+v born %v seqBase %d summary plain=%b all=%b loop=[%d,%d]",
						seed, step, op, dst, got, want, cs.ctl, cs.born, cs.seqBase, cs.plain, cs.all, cs.loopMin, cs.loopMax)
					return false
				}
			}
			return true
		}

		for step := 0; step < 300; step++ {
			var op string
			switch k := r.Intn(20); {
			case k < 6:
				op = "push"
				join, label, loop := joins[r.Intn(len(joins))], labels[r.Intn(len(labels))], r.Intn(2) == 0
				cs.push(join, label, loop)
				nv.push(join, label, loop)
			case k < 10:
				op = "closeAt"
				// Block indices are never negative; 63 shares join -1's bit.
				blk := joins[1+r.Intn(len(joins)-1)]
				cs.closeAt(int32(blk))
				nv.closeAt(blk)
			case k < 18:
				op = "write"
				dst, wl := r.Intn(regs), labels[r.Intn(len(labels))]
				if got, want := cs.write(int32(dst), wl), nv.write(dst, wl); got != want {
					t.Errorf("seed %d step %d: write r%d = %b, scan says %b", seed, step, dst, got, want)
					return false
				}
			case k < 19:
				op = "reset"
				cs.reset()
				nv.ctl = nv.ctl[:0]
			default:
				op = "begin"
				base := labels[r.Intn(len(labels))]
				cs.seqBase = cs.writeSeq // what a clean return leaves behind
				cs.begin(base, true, params)
				nv.begin(base, params)
			}
			if !agree(step, op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
