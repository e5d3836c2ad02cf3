package cpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// checkBookkeeping checks every scheduler list against the ROB predicate it
// replaces, the completion wake bound against the in-flight list, the
// memory hierarchy's wake bounds, and the engine's live-stream list against
// its stream table.
func (c *Core) checkBookkeeping() error {
	var unissued [pgCount]int
	var waiting, inflight, lq []*robEntry
	for _, e := range c.rob {
		if e.squashed {
			return fmt.Errorf("squashed seq %d still in the ROB", e.seq)
		}
		if !e.issued {
			unissued[e.group]++
			waiting = append(waiting, e)
		} else if !e.done {
			inflight = append(inflight, e)
		}
		if e.isLoad {
			lq = append(lq, e)
		}
	}
	if !slices.Equal(c.inflight, inflight) {
		return fmt.Errorf("in-flight list %v, ROB has %v", seqs(c.inflight), seqs(inflight))
	}
	for _, e := range c.inflight {
		if e.execDoneAt != 0 && e.execDoneAt < c.doneAt {
			return fmt.Errorf("complete wakes at %d, seq %d is done at %d", c.doneAt, e.seq, e.execDoneAt)
		}
	}
	if err := c.hier.CheckWakeBounds(); err != nil {
		return err
	}
	if !slices.Equal(c.lq, lq) {
		return fmt.Errorf("LQ %v, ROB has %v", seqs(c.lq), seqs(lq))
	}
	iq := 0
	for g, n := range unissued {
		iq += n
		if c.schedCnt[g] != n {
			return fmt.Errorf("schedCnt[%d] = %d, ROB has %d unissued", g, c.schedCnt[g], n)
		}
	}
	if c.iqCount != iq {
		return fmt.Errorf("iqCount = %d, ROB has %d unissued", c.iqCount, iq)
	}

	for g, l := range c.ready {
		for i, e := range l {
			switch {
			case i > 0 && l[i-1].seq >= e.seq:
				return fmt.Errorf("ready list %d out of age order: %v", g, seqs(l))
			case e.group != portGroup(g):
				return fmt.Errorf("ready list %d holds seq %d of group %d", g, e.seq, e.group)
			case !slices.Contains(waiting, e):
				return fmt.Errorf("ready list %d holds seq %d, not an unissued ROB entry", g, e.seq)
			}
		}
	}
	for _, e := range waiting {
		pending := 0
		for i, cl := range e.srcClass {
			if cl == isa.ClassNone || c.regs[cl].ready[e.srcPhys[i]] {
				continue
			}
			pending++
			recs := 0
			for _, w := range c.regs[cl].waiters[e.srcPhys[i]] {
				if w.e == e && w.seq == e.seq {
					recs++
				}
			}
			slots := 0
			for j, cj := range e.srcClass {
				if cj == cl && e.srcPhys[j] == e.srcPhys[i] {
					slots++
				}
			}
			if recs != slots {
				return fmt.Errorf("seq %d waits on class %d phys %d with %d records, want %d", e.seq, cl, e.srcPhys[i], recs, slots)
			}
		}
		if e.pending != pending {
			return fmt.Errorf("seq %d pending = %d, %d sources unwritten", e.seq, e.pending, pending)
		}
		if listed := slices.Contains(c.ready[e.group], e); listed != (pending == 0) {
			return fmt.Errorf("seq %d with %d unwritten sources: on ready list = %v", e.seq, pending, listed)
		}
	}
	if err := c.checkPhysConserved(); err != nil {
		return err
	}
	if c.eng != nil {
		return c.eng.CheckLiveList()
	}
	return nil
}

// checkPhysConserved checks that, in each class, every physical register is
// held exactly once: by the RAT, the free list, an in-flight entry's old
// mapping, or a vector stream-consume temporary.
func (c *Core) checkPhysConserved() error {
	for cl := isa.ClassInt; cl <= isa.ClassPred; cl++ {
		r := &c.regs[cl]
		held := make([]int, len(r.ready))
		for _, p := range r.rat {
			held[p]++
		}
		for _, p := range r.free {
			held[p]++
		}
		for _, e := range c.rob {
			if e.dstClass == cl {
				held[e.oldPhys]++
			}
			if cl == isa.ClassVec {
				for _, rec := range e.consumes {
					held[rec.phys]++
				}
			}
		}
		for p, n := range held {
			if n != 1 {
				return fmt.Errorf("class %d phys %d is held %d times", cl, p, n)
			}
		}
	}
	return nil
}

func seqs(l []*robEntry) []int64 {
	out := make([]int64, len(l))
	for i, e := range l {
		out[i] = e.seq
	}
	return out
}

// runChecked runs m as Run does, without event skipping, checking the
// bookkeeping after every cycle.
func runChecked(t *testing.T, m *machine) {
	t.Helper()
	c := m.core
	check := func() {
		if err := c.checkBookkeeping(); err != nil {
			t.Fatalf("cycle %d: %v", c.cycle, err)
		}
	}
	for !c.halted {
		c.Step()
		check()
	}
	for len(c.drainQ) > 0 || !c.hier.Quiesce() || c.eng != nil && c.eng.StoresPending() {
		c.Step()
		check()
	}
}

// TestBookkeepingEveryCycle runs every kernel on every machine and checks
// the scheduler's ready, in-flight and load-queue lists, its counters and
// the engine's live-stream list after each cycle.
func TestBookkeepingEveryCycle(t *testing.T) {
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			t.Run(k.ID+"/"+v.String(), func(t *testing.T) {
				runChecked(t, newKernelMachine(t, k.ID, v, k.MinSize))
			})
		}
	}
}

// TestBookkeepingUnderFaults covers squash and replay: the default fault
// plan forces page faults on stream chunks (UVE) and on the core's own loads
// (SVE), besides NACKs, DRAM spikes and generation pauses.
func TestBookkeepingUnderFaults(t *testing.T) {
	for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE} {
		t.Run(v.String(), func(t *testing.T) {
			m := newKernelMachine(t, "C", v, 4096)
			inj := fault.NewInjector(fault.DefaultPlan(7))
			m.hier.TLB.Inject = inj.PageFault
			m.hier.DRAM.Inject = inj.DRAMDelay
			if m.eng != nil {
				m.eng.SetInjector(inj)
			}
			runChecked(t, m)
			if m.core.Stats.PageFaults == 0 {
				t.Fatal("the plan forced no page fault")
			}
		})
	}
}
