package cfrt

import (
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Software combining-tree barrier (Yew, Tzeng, Lawrie — the paper's
// reference [16]). On the hypothetical unclustered machine, a flat
// busy-wait barrier makes the barrier word a hot spot: every CE's
// polls pile onto one memory module and its network ports, degrading
// all traffic (Pfister & Norton, reference [15]). A combining tree
// spreads the synchronization across many words on many modules: CEs
// arrive at leaf nodes in groups of Fanout; the last arrival at each
// node ascends, so only a logarithmic cascade reaches the root, and
// each CE polls its own node rather than the shared root.
//
// Set Runtime.TreeFanout > 1 to use the tree instead of the flat
// barrier on unclustered configurations (clustered configurations
// synchronize through the concurrency bus and never need either).

// combNode is one node of the combining tree.
type combNode struct {
	addr     int64
	need     int
	have     int
	parent   *combNode
	released bool
}

// combTree is the per-loop tree instance.
type combTree struct {
	leaves []*combNode
	levels int
	all    []*combNode
}

// newCombTree builds a tree over n CEs with the given fanout, using
// the runtime's preallocated node words (distinct global memory
// addresses, hence distinct modules).
func (rt *Runtime) newCombTree(n, fanout int) *combTree {
	if fanout < 2 {
		fanout = 2
	}
	t := &combTree{}
	// Build level 0 (leaves) upward.
	level := make([]*combNode, 0, (n+fanout-1)/fanout)
	counts := make([]int, (n+fanout-1)/fanout)
	for ce := 0; ce < n; ce++ {
		counts[ce/fanout]++
	}
	for i, c := range counts {
		node := &combNode{addr: rt.treeAddr(len(t.all)), need: c}
		_ = i
		level = append(level, node)
		t.all = append(t.all, node)
	}
	t.leaves = level
	t.levels = 1
	for len(level) > 1 {
		parents := make([]*combNode, 0, (len(level)+fanout-1)/fanout)
		for i := 0; i < len(level); i += fanout {
			end := i + fanout
			if end > len(level) {
				end = len(level)
			}
			p := &combNode{addr: rt.treeAddr(len(t.all)), need: end - i}
			for _, child := range level[i:end] {
				child.parent = p
			}
			parents = append(parents, p)
			t.all = append(t.all, p)
		}
		level = parents
		t.levels++
	}
	return t
}

// treeAddr returns the global memory word backing tree node i,
// allocating the pool lazily.
func (rt *Runtime) treeAddr(i int) int64 {
	for len(rt.treeWords) <= i {
		rt.treeWords = append(rt.treeWords, rt.M.AllocGM(1))
	}
	return rt.treeWords[i]
}

// treeBarrier is the combining-tree arrival for one CE.
func (rt *Runtime) treeBarrier(ce *cluster.CE, al *activeLoop) {
	rt.stats.TreeBarriers++
	rt.ensureArrived(al)
	if al.tree == nil {
		al.tree = rt.newCombTree(rt.M.Cfg.CEs(), rt.TreeFanout)
		// CEs absent before the tree existed still count toward its
		// node quotas.
		rt.ghostArrivals(al)
	}
	al.arrived[ce.Global()] = true
	leaf := al.tree.leaves[ce.Global()/max(rt.TreeFanout, 2)]
	rt.treeArrive(ce, al.tree, leaf)
	// Wait for the release to reach the leaf, polling our own node —
	// not a shared hot word.
	for !leaf.released {
		ce.Spend(sim.Duration(rt.Cost.SpinPollInterval), metrics.CatBarrierWait)
		ce.GMAccessAs(leaf.addr, 1, metrics.CatBarrierWait)
	}
}

// treeArrive records an arrival at node; the last arrival ascends.
func (rt *Runtime) treeArrive(ce *cluster.CE, t *combTree, node *combNode) {
	// The arrival increment: one fetch-and-add on the node's word.
	ce.GMAccessAs(node.addr, 1, metrics.CatBarrierWait)
	node.have++
	if node.have < node.need {
		return
	}
	if node.parent != nil {
		rt.treeArrive(ce, t, node.parent)
		return
	}
	// Root complete: release cascades down. The releasing CE writes
	// each level's release words on its way down (modeled as one
	// access per level).
	for i := 0; i < t.levels; i++ {
		ce.GMAccessAs(rt.treeAddr(i), 1, metrics.CatBarrierWait)
	}
	for _, n := range t.all {
		n.released = true
	}
}

// ghostArrive credits a node with an arrival that no CE will make (a
// fail-stopped processor), cascading upward like treeArrive but with
// no memory traffic — the pager/scheduler fixes the quota, not a CE.
func (t *combTree) ghostArrive(node *combNode) {
	node.have++
	if node.have < node.need {
		return
	}
	if node.parent != nil {
		t.ghostArrive(node.parent)
		return
	}
	for _, n := range t.all {
		n.released = true
	}
}

// ghostArrivals applies a ghost arrival for every absent CE (see
// Runtime.absent) that never reached the active loop's combining tree,
// so the survivors' release cascade is not held up by dead processors
// or by the workers of a dead lead.
func (rt *Runtime) ghostArrivals(al *activeLoop) {
	if al.tree == nil {
		return
	}
	rt.ensureArrived(al)
	fanout := max(rt.TreeFanout, 2)
	for _, cl := range rt.M.Clusters {
		for _, ce := range cl.CEs {
			g := ce.Global()
			if !al.arrived[g] && rt.absent(ce, al) {
				al.arrived[g] = true
				al.tree.ghostArrive(al.tree.leaves[g/fanout])
			}
		}
	}
}
