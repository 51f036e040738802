package sim

// Cond is a condition variable for simulation processes. Unlike
// sync.Cond there is no associated lock: the simulation is
// single-threaded in virtual time, so checking a predicate and calling
// Wait is atomic by construction.
type Cond struct {
	k       *Kernel
	name    string
	waiters []*Proc
}

// NewCond creates a condition variable.
func NewCond(k *Kernel, name string) *Cond {
	return &Cond{k: k, name: name}
}

// Name returns the condition's diagnostic name.
func (c *Cond) Name() string { return c.name }

// Waiters returns the number of processes currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Wait blocks the process until Signal or Broadcast wakes it. It
// returns the time spent waiting. As with any condition variable, the
// caller must re-check its predicate after waking.
func (c *Cond) Wait(p *Proc) Duration {
	p.checkRunning("Cond.Wait")
	start := c.k.now
	c.waiters = append(c.waiters, p)
	p.blockOn("cond:" + c.name)
	return c.k.now - start
}

// WaitTimeout blocks until a signal or until d cycles elapse,
// whichever is first. It returns the time waited and whether the wait
// timed out.
func (c *Cond) WaitTimeout(p *Proc, d Duration) (Duration, bool) {
	p.checkRunning("Cond.WaitTimeout")
	start := c.k.now
	c.waiters = append(c.waiters, p)
	timedOut := false
	ev := c.k.After(d, func() {
		// Only fires if we were not signaled first. A waiter that was
		// aborted in the meantime is removed without a wake (it is
		// already unwinding).
		for i, w := range c.waiters {
			if w == p {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				if p.state != stateBlocked {
					return
				}
				timedOut = true
				c.k.wake(p)
				return
			}
		}
	})
	p.blockOn("cond:" + c.name)
	if !timedOut {
		ev.Cancel()
	}
	return c.k.now - start, timedOut
}

// Signal wakes the longest-waiting process, if any. Waiters that were
// aborted while queued are skipped (they are already unwinding). It
// reports whether a process was woken.
func (c *Cond) Signal() bool {
	for len(c.waiters) > 0 {
		head := c.waiters[0]
		copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:len(c.waiters)-1]
		if head.state != stateBlocked {
			continue // aborted/dead waiter: drop and try the next
		}
		c.k.wake(head)
		return true
	}
	return false
}

// Broadcast wakes every waiting process (skipping any aborted while
// queued). It returns the number woken.
func (c *Cond) Broadcast() int {
	n := 0
	for _, w := range c.waiters {
		if w.state != stateBlocked {
			continue
		}
		c.k.wake(w)
		n++
	}
	c.waiters = c.waiters[:0]
	return n
}
