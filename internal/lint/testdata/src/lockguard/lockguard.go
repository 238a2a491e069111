// Package lockguard exercises every diagnostic of the lockguard
// analyzer: guarded-field reads/writes without the lock, RLock-only
// writes, double-lock, may-be-held-at-return, unlock-when-not-held,
// untrackable base expressions, and malformed annotations — plus the
// legal patterns (defer unlock, deferred-closure unlock, TryLock
// branches, constructor exemption) that must stay silent.
package lockguard

import "sync"

type counter struct {
	mu   sync.Mutex
	n    int // guarded by mu
	name string
}

type table struct {
	rw   sync.RWMutex
	rows map[string]int // guarded by rw
	hits int            // guarded by nosuch // want "guard annotation on hits: .* does not name a sibling sync.Mutex or sync.RWMutex field"
}

var shared = &counter{}

func fetch() *counter { return shared }

func register(*counter) {}

// newCounter: the value has not escaped yet, so initializing guarded
// fields without the lock is legal until the return publishes it.
func newCounter() *counter {
	c := &counter{name: "fresh"}
	c.n = 1
	return c
}

// newPublished: the exemption ends at the first escape.
func newPublished() *counter {
	c := &counter{}
	c.n = 1
	register(c)
	c.n = 2 // want "write of c.n without holding c.mu"
	return c
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) deferInc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) closureUnlock() {
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
	}()
	c.n++
}

func (c *counter) badRead() int {
	return c.n // want "read of c.n without holding c.mu"
}

func (c *counter) badWrite() {
	c.n = 4 // want "write of c.n without holding c.mu"
}

func (c *counter) doubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "c.mu.Lock while c.mu is already held"
}

func (c *counter) leaky(flag bool) {
	c.mu.Lock()
	if flag {
		return // want "c.mu may still be held at this return"
	}
	c.mu.Unlock()
}

func (c *counter) unlockStranger() {
	c.mu.Unlock() // want "c.mu.Unlock but c.mu is not held on any path"
}

func (c *counter) spawn() {
	go func() {
		c.n++ // want "write of c.n without holding c.mu"
	}()
}

func (c *counter) tryInc() bool {
	if c.mu.TryLock() {
		c.n++
		c.mu.Unlock()
		return true
	}
	return false
}

func (c *counter) tryWrong() {
	if !c.mu.TryLock() {
		c.n++ // want "write of c.n without holding c.mu"
		return
	}
	c.mu.Unlock()
}

func badViaCall() {
	fetch().n = 9 // want "write of .* through an untrackable base expression"
}

func (t *table) lookup(k string) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.rows[k]
}

func (t *table) badUpgrade(k string) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	t.rows[k] = 1 // want "write of t.rows with t.rw held only for reading"
}

func (t *table) store(k string, v int) {
	t.rw.Lock()
	defer t.rw.Unlock()
	t.rows[k] = v
}

// box is generic: its methods select fields through an instantiation
// (box[T] with the receiver's own T), which must resolve to the
// annotated declaration.
type box[T any] struct {
	mu  sync.Mutex
	val T // guarded by mu
}

func (b *box[T]) get() T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val
}

func (b *box[T]) badSet(v T) {
	b.val = v // want "write of b.val without holding b.mu"
}

func badIntBox(b *box[int]) int {
	return b.val // want "read of b.val without holding b.mu"
}
