package main

import cedar "repro"

// counts is the deterministic work a set of simulations did, read from
// the public accessors of each finished run, plus how often an operation
// called the recording and cache layers. Counts repeat exactly for the
// same inputs, so they prove that two versions simulated the same work.
type counts struct {
	sims         float64
	events       float64 // kernel events fired
	ct           float64 // virtual completion time, cycles
	accesses     float64 // global-memory accesses
	words        float64 // words those accesses moved
	reservations float64 // network port reservations, both directions
	moduleDelay  float64 // virtual queueing at memory modules, cycles
	netDelay     float64 // virtual queueing at network ports, cycles
	osEvents     float64 // OS activities (Table 2 counts)
	// badAccounts counts CEs whose account total differs from the
	// completion time, which the model should never produce.
	badAccounts float64

	snapshots float64 // metric registry snapshots taken
	statfx    float64 // StatfxText renderings
	cacheGets float64 // result-cache lookups
	cachePuts float64 // result-cache writes
}

func countsOf(run *cedar.Run) counts {
	gm := run.Result.GM
	c := counts{
		sims:         1,
		events:       float64(run.Machine.Kernel.EventsFired()),
		ct:           float64(run.Result.CT),
		accesses:     float64(gm.Accesses),
		words:        float64(gm.Words),
		reservations: float64(run.Machine.GM.Net().Stats().Reservations),
		moduleDelay:  float64(gm.ModuleDelay),
		netDelay:     float64(gm.NetworkDelay),
	}
	for _, row := range run.Result.OSDetail() {
		c.osEvents += float64(row.Count)
	}
	for _, a := range run.Result.Accounts {
		if a.Total() != run.Result.CT {
			c.badAccounts++
		}
	}
	return c
}

func (c *counts) add(o counts) {
	c.sims += o.sims
	c.events += o.events
	c.ct += o.ct
	c.accesses += o.accesses
	c.words += o.words
	c.reservations += o.reservations
	c.moduleDelay += o.moduleDelay
	c.netDelay += o.netDelay
	c.osEvents += o.osEvents
	c.badAccounts += o.badAccounts
	c.snapshots += o.snapshots
	c.statfx += o.statfx
	c.cacheGets += o.cacheGets
	c.cachePuts += o.cachePuts
}

func (c counts) scaled(f float64) counts {
	return counts{sims: c.sims * f, events: c.events * f, ct: c.ct * f, accesses: c.accesses * f,
		words: c.words * f, reservations: c.reservations * f, moduleDelay: c.moduleDelay * f,
		netDelay: c.netDelay * f, osEvents: c.osEvents * f, badAccounts: c.badAccounts * f, snapshots: c.snapshots * f,
		statfx: c.statfx * f, cacheGets: c.cacheGets * f, cachePuts: c.cachePuts * f}
}
