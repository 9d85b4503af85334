package engine

import (
	"testing"
	"time"
)

// A panicking computation must unblock waiters and leave the key usable.
func TestFlightPanicDoesNotPoisonKey(t *testing.T) {
	c := newFlightCache[int]()
	waited := make(chan int, 1)
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.get(nil, "k", func() (int, bool) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			panic("boom")
		})
	}()
	<-started
	go func() {
		v, _, _ := c.get(nil, "k", func() (int, bool) { return 42, true })
		waited <- v
	}()
	select {
	case v := <-waited:
		// The waiter either observed the zero value from the panicked
		// flight or recomputed; either way the key must not deadlock, and
		// a fresh get must recompute successfully.
		_ = v
	case <-time.After(10 * time.Second):
		t.Fatal("waiter deadlocked on a panicked flight")
	}
	v, cached, _ := c.get(nil, "k", func() (int, bool) { return 7, true })
	if cached && v != 7 && v != 42 {
		t.Fatalf("poisoned key: v=%d cached=%v", v, cached)
	}
}

// A waiter whose abort channel fires must return promptly, not wait for
// the in-flight computation.
func TestFlightAbortWhileWaiting(t *testing.T) {
	c := newFlightCache[int]()
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.get(nil, "k", func() (int, bool) {
			close(started)
			<-release
			return 1, true
		})
	}()
	<-started
	abort := make(chan struct{})
	close(abort)
	done := make(chan struct{})
	go func() {
		_, cached, aborted := c.get(abort, "k", func() (int, bool) { return 2, true })
		if cached || !aborted {
			t.Errorf("want aborted wait, got cached=%v aborted=%v", cached, aborted)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted waiter did not return")
	}
	close(release)
}
