package sim

import "fmt"

// Resource is a FCFS mutual-exclusion / counting resource. Processes
// that Acquire beyond capacity block in arrival order and are granted
// the resource as units are Released. It models locks (capacity 1) and
// multi-server stations.
//
// Acquire/Release must be called from inside a process.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	// Statistics.
	acquires   uint64
	contended  uint64   // acquires that had to wait
	waitTotal  Duration // total time spent waiting across all acquires
	maxWaiters int
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// NewLock creates a capacity-1 resource.
func NewLock(k *Kernel, name string) *Resource { return NewResource(k, name, 1) }

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquires returns the total number of completed Acquire calls.
func (r *Resource) Acquires() uint64 { return r.acquires }

// Contended returns how many Acquire calls had to wait.
func (r *Resource) Contended() uint64 { return r.contended }

// WaitTotal returns the total virtual time processes spent waiting to
// acquire the resource.
func (r *Resource) WaitTotal() Duration { return r.waitTotal }

// MaxWaiters returns the high-water mark of the wait queue.
func (r *Resource) MaxWaiters() int { return r.maxWaiters }

// Acquire takes one unit, blocking FCFS if none is free. It returns
// the time spent waiting.
func (r *Resource) Acquire(p *Proc) Duration {
	p.checkRunning("Resource.Acquire")
	r.acquires++
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return 0
	}
	r.contended++
	start := r.k.now
	r.waiters = append(r.waiters, p)
	if len(r.waiters) > r.maxWaiters {
		r.maxWaiters = len(r.waiters)
	}
	p.blockOn("lock:" + r.name)
	// We were woken by Release, which already transferred the unit to
	// us (inUse stays incremented on handoff).
	waited := r.k.now - start
	r.waitTotal += waited
	return waited
}

// Release returns one unit. If processes are waiting, the unit is
// handed directly to the head of the queue, which resumes at the
// current virtual time. Waiters aborted while queued are skipped: the
// unit passes to the first live waiter, or back to the free pool.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: resource %q released below zero", r.name))
	}
	for len(r.waiters) > 0 {
		head := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		if head.state != stateBlocked {
			continue // aborted/dead waiter: drop and try the next
		}
		// Hand off the unit: inUse is unchanged (one out, one in).
		r.k.wake(head)
		return
	}
	r.inUse--
}

// Use acquires the resource, holds for d cycles of service, and
// releases. It returns the queueing delay endured (not counting d).
func (r *Resource) Use(p *Proc, d Duration) Duration {
	waited := r.Acquire(p)
	p.Hold(d)
	r.Release()
	return waited
}
