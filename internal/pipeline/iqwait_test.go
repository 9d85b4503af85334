package pipeline

import (
	"bytes"
	"testing"

	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// freeWaiters counts the free nodes of the core's iqWait pool.
func freeWaiters(c *Core) int {
	n := 0
	for i := c.iqFree; i != 0; i = c.iqWaiters[i].next {
		n++
	}
	return n
}

// assertWaitersFree checks that no issue-queue entry waits on any value:
// every pool node is free and no value heads a list.
func assertWaitersFree(t *testing.T, label string, c *Core) {
	t.Helper()
	if got, want := freeWaiters(c), len(c.iqWaiters)-1; got != want {
		t.Errorf("%s: %d of %d iqWait nodes free", label, got, want)
	}
	for i := range c.values {
		if c.values[i].iqWait != 0 {
			t.Fatalf("%s: value %d still has issue-queue waiters", label, c.values[i].seq)
		}
	}
	for seq, v := range c.valOverflow {
		if v.iqWait != 0 {
			t.Fatalf("%s: overflow value %d still has issue-queue waiters", label, seq)
		}
	}
}

// A value that becomes ready in one cluster wakes only that cluster's
// waiters; the waiters in another cluster stay linked until their own
// copy arrives there.
func TestIQWaitersStayLinkedUntilTheirCopy(t *testing.T) {
	tr := trace.Expand(chainProgram(), trace.Options{NumUops: 10, Seed: 1})
	c, err := NewCore(DefaultConfig(2), &steer.OP{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	const seq = 5
	v := c.newValue(seq, uarch.IntReg(1), 0)
	home, far := c.clusters[0], c.clusters[1]
	local := home.IntQ.Insert(10, 0, 1)
	c.waitFor(v, 0, home.IntQ, local)
	copyOut := home.CopyQ.Insert(seq, 1, 1)
	c.waitFor(v, 0, home.CopyQ, copyOut)
	remote := far.IntQ.Insert(11, 0, 2)
	c.waitFor(v, 1, far.IntQ, remote)
	c.waitFor(c.newValue(6, uarch.IntReg(2), 1), 1, far.IntQ, remote)

	c.valueReadyIn(seq, 0)
	if home.IntQ.ReadyLen() != 1 || home.CopyQ.ReadyLen() != 1 {
		t.Fatalf("home waiters not woken: int ready %d, copy ready %d", home.IntQ.ReadyLen(), home.CopyQ.ReadyLen())
	}
	if far.IntQ.ReadyLen() != 0 {
		t.Fatal("a waiter in another cluster woke before its copy arrived")
	}
	if n := v.iqWait; n == 0 || c.iqWaiters[n].e != remote || c.iqWaiters[n].next != 0 {
		t.Fatal("the far cluster's waiter is not the one node left on the value's list")
	}
	c.valueReadyIn(seq, 0) // a repeated delivery is ignored

	c.valueReadyIn(seq, 1)
	if v.iqWait != 0 {
		t.Fatal("value keeps waiters after arriving in every waiting cluster")
	}
	if far.IntQ.ReadyLen() != 0 {
		t.Fatal("two-operand entry ready with one operand pending")
	}
	c.valueReadyIn(6, 1)
	if far.IntQ.ReadyLen() != 1 {
		t.Fatal("two-operand entry not ready after both operands arrived")
	}
	if got, want := freeWaiters(c), len(c.iqWaiters)-1; got != want {
		t.Errorf("%d of %d nodes free after every wakeup", got, want)
	}
}

// Freeing a value that an issue-queue entry still waits on is a broken
// core invariant, not something to skip over.
func TestFreeValueWithWaitersPanics(t *testing.T) {
	tr := trace.Expand(chainProgram(), trace.Options{NumUops: 10, Seed: 1})
	c, err := NewCore(DefaultConfig(2), &steer.OP{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	v := c.newValue(5, uarch.IntReg(1), 0)
	q := c.clusters[0].IntQ
	c.waitFor(v, 0, q, q.Insert(10, 0, 1))
	defer func() {
		if recover() == nil {
			t.Error("freeValue released a value with issue-queue waiters")
		}
	}()
	c.freeValue(5)
}

// Every iqWait node returns to the pool by the end of a run, and a
// canceled run's leftovers are cleared by Reset: the pooled core then
// reproduces a fresh core's results byte for byte. The traces are long
// enough that Run's periodic cancel check comes before the end.
func TestIQWaiterPoolDrainsAndResets(t *testing.T) {
	traces := suiteTraces(t, 12000)
	traces["mixed"] = trace.Expand(mixedProgram(), trace.Options{NumUops: 12000, Seed: 7})
	policies := []func() steer.Policy{
		func() steer.Policy { return &steer.OP{} },
		func() steer.Policy { return steer.NewVC(2) },
		func() steer.Policy { return &steer.ModN{} },
	}
	leftover := false
	for _, clusters := range []int{2, 4} {
		cfg := DefaultConfig(clusters)
		for name, tr := range traces {
			for _, pol := range policies {
				want, fresh := runEncoded(t, cfg, tr, pol())
				label := name + "/" + fresh.policy.Name()
				assertWaitersFree(t, label+" after a full run", fresh)

				done := make(chan struct{})
				ccfg := cfg
				ccfg.Cancel = done
				core, err := NewCore(ccfg, &cancelAfter{Policy: pol(), n: 1500, done: done}, tr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := core.Run(); err != ErrCanceled {
					t.Fatalf("%s: Run = %v, want ErrCanceled", label, err)
				}
				leftover = leftover || freeWaiters(core) < len(core.iqWaiters)-1
				if err := core.Reset(cfg, pol(), tr); err != nil {
					t.Fatal(err)
				}
				assertWaitersFree(t, label+" after Reset", core)
				if got := encodeRun(t, core); !bytes.Equal(got, want) {
					t.Errorf("%s: pooled core's results differ from a fresh core's", label)
				}
				assertWaitersFree(t, label+" after the pooled run", core)
			}
		}
	}
	if !leftover {
		t.Error("no canceled run left a waiter linked; the Reset check exercised nothing")
	}
}
