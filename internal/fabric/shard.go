package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// A sequential multi-engine schedule over a partition of the fabric
// graph. The topology is partitioned structurally: every host node is
// its own shard (together with any directly attached device, which
// rides the host's home agent and shares its engine), and the switch
// fabric plus all switch-attached expanders form the hub shard. Each
// shard owns a private sim.Engine; shards interact only through typed
// messages that cross a fabric link, and every fabric link has a
// nonzero one-way propagation latency (LinkSpec normalization
// substitutes the calibrated CXL latency for zero). A zero-latency link
// would force its endpoints into one shard; since normalization makes
// that unexpressible, Partition rejects the case outright rather than
// silently merging.
//
// # Schedule
//
// Run always picks the shard r with the earliest pending event N_r and
// lets it execute every event strictly before
//
//	W_r = min( N_r + rt_r,  min_{j≠r}( N_j + dist(j,r) ) )
//
// dist is the all-pairs shortest-path metric over link one-way
// latencies, and rt_r = min_k(dist(r,k)+dist(k,r)) bounds echoes of the
// sends r itself makes inside the window. No message can reach r before
// W_r, so batching a whole window is exact, not an approximation. Send
// delivers a message straight into the destination engine.
//
// # Determinism
//
// Every event carries a (when, srcShard<<SourceShift|srcSeq) key —
// locals tagged by their own engine (sim.SetSourceID), messages tagged
// by the sender at send time (Shard.Send) — and each engine's heap
// dispatches in key order, so same-instant events from different shards
// merge in a fixed order.
//
// Shards run sequentially on purpose: parallel workers under the same
// windows measured 2.2× slower on the cluster benchmark (4 workers over
// 5 shards, 2 vCPU; DESIGN.md §8).

// Shard is one partition of the fabric simulation: a private engine and
// the nodes that live on it.
type Shard struct {
	set   *ShardSet
	id    int
	eng   *sim.Engine
	nodes []string
	// out is the per-sender message sequence, the srcSeq half of the
	// deterministic merge key.
	out uint64
}

// ID returns the shard's index within its ShardSet.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private event engine.
func (s *Shard) Engine() *sim.Engine { return s.eng }

// Nodes lists the topology nodes resident on this shard, hub nodes in
// declaration order.
func (s *Shard) Nodes() []string { return s.nodes }

// Send delivers fn(arg) into shard dst at when plus the inter-shard
// link distance, carrying this shard's (id, seq) merge key. It must be
// called from within this shard's own event processing (or before the
// run starts), and `when` — the modeled emission time — must not
// precede the shard's clock. Sending to the own shard is a plain local
// schedule: co-resident interaction has no link to cross.
func (s *Shard) Send(dst int, when sim.Time, fn func(any), arg any) {
	if now := s.eng.Now(); when < now {
		panic(fmt.Sprintf("fabric: shard %d sends at %v before now %v", s.id, when, now))
	}
	if dst == s.id {
		s.eng.AtCall(when, fn, arg)
		return
	}
	s.out++
	set := s.set
	set.shards[dst].eng.AtCallTagged(satAdd(when, set.dist[s.id][dst]),
		uint64(s.id)<<sim.SourceShift|s.out, fn, arg)
}

// ShardSet is the partitioned execution of one fabric simulation.
type ShardSet struct {
	shards []*Shard
	byNode map[string]int
	dist   [][]sim.Time
	rt     []sim.Time // cheapest self round trip per shard
}

// NumShards reports the shard count of the partition.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

// Shard returns shard i.
func (ss *ShardSet) Shard(i int) *Shard { return ss.shards[i] }

// NodeShard reports which shard a topology node resides on.
func (ss *ShardSet) NodeShard(id string) int {
	s, ok := ss.byNode[id]
	if !ok {
		panic(fmt.Sprintf("fabric: no node %q in shard partition", id))
	}
	return s
}

// Dist returns the minimum cross-shard latency from src to dst — the
// message delivery distance Send applies.
func (ss *ShardSet) Dist(src, dst int) sim.Time { return ss.dist[src][dst] }

// Partition splits the compiled fabric into shards. The hub shard takes
// over the fabric's own engine, so call it once, before any event is
// scheduled on that engine.
func (f *Fabric) Partition() (*ShardSet, error) {
	ss := &ShardSet{byNode: map[string]int{}}

	// Hub shard first (switches and their expanders), if the topology has
	// one; then one shard per host in declaration order. Directly
	// attached devices co-reside with their host: they ride the host's
	// home agent, a zero-latency interaction by construction.
	hubNodes := []string{}
	for _, n := range f.topo.Nodes {
		if k := f.kinds[n.ID]; k == Switch {
			hubNodes = append(hubNodes, n.ID)
		}
	}
	for _, l := range f.topo.Links {
		ka, kb := f.kinds[l.A], f.kinds[l.B]
		if ka == Switch && kb == Type3 {
			hubNodes = append(hubNodes, l.B)
		}
		if kb == Switch && ka == Type3 {
			hubNodes = append(hubNodes, l.A)
		}
	}
	addShard := func(eng *sim.Engine, nodes []string) {
		s := &Shard{set: ss, id: len(ss.shards), eng: eng, nodes: nodes}
		for _, id := range nodes {
			ss.byNode[id] = s.id
		}
		eng.SetSourceID(s.id)
		ss.shards = append(ss.shards, s)
	}
	if len(hubNodes) > 0 {
		// The hub owns the fabric's original engine: links, ports and
		// expanders were compiled against it.
		addShard(f.eng, hubNodes)
	}
	for _, h := range f.hostIDs {
		nodes := []string{h}
		for _, l := range f.topo.Links {
			ka, kb := f.kinds[l.A], f.kinds[l.B]
			if l.A == h && (kb == Type2 || kb == Type3) {
				nodes = append(nodes, l.B)
			}
			if l.B == h && (ka == Type2 || ka == Type3) {
				nodes = append(nodes, l.A)
			}
		}
		if len(ss.shards) == 0 {
			addShard(f.eng, nodes) // no hub: the lone host shard drives f.eng
		} else {
			addShard(sim.NewEngine(), nodes)
		}
	}

	n := len(ss.shards)
	// Inter-shard distances: shortest path over fabric-link one-way
	// latencies (Floyd–Warshall; n is hosts+1). The metric closure is
	// what lets the window bound cover multi-hop causal chains with a
	// single term per origin shard.
	ss.dist = make([][]sim.Time, n)
	for i := range ss.dist {
		ss.dist[i] = make([]sim.Time, n)
		for j := range ss.dist[i] {
			if i != j {
				ss.dist[i][j] = sim.Forever
			}
		}
	}
	for _, fl := range f.links {
		a, b := ss.byNode[fl.a], ss.byNode[fl.b]
		if a == b {
			continue
		}
		if fl.spec.OneWay <= 0 {
			// Unreachable today — normalization defaults zero to the
			// calibrated CXL latency — but the invariant the whole scheme
			// rests on deserves an explicit guard: a zero-latency
			// cross-shard link would mean zero lookahead.
			return nil, fmt.Errorf("fabric: link %s crosses shards with zero latency; endpoints must co-reside", fl.name())
		}
		if ow := fl.spec.OneWay; ow < ss.dist[a][b] {
			ss.dist[a][b] = ow
			ss.dist[b][a] = ow
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := satAdd(ss.dist[i][k], ss.dist[k][j]); v < ss.dist[i][j] {
					ss.dist[i][j] = v
				}
			}
		}
	}
	ss.rt = make([]sim.Time, n)
	for i := 0; i < n; i++ {
		ss.rt[i] = sim.Forever
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			if v := satAdd(ss.dist[i][k], ss.dist[k][i]); v < ss.rt[i] {
				ss.rt[i] = v
			}
		}
	}
	return ss, nil
}

// windowFor computes the exclusive execution bound W_r for shard r
// (see the schedule note at the top of the file).
func (ss *ShardSet) windowFor(r int) sim.Time {
	w := satAdd(ss.shards[r].eng.NextEventAt(), ss.rt[r])
	for j, s := range ss.shards {
		if j == r {
			continue
		}
		if v := satAdd(s.eng.NextEventAt(), ss.dist[j][r]); v < w {
			w = v
		}
	}
	return w
}

// Run executes every shard to quiescence on the calling goroutine: it
// repeatedly runs the shard holding the globally earliest event up to
// that shard's window. A panic inside any event propagates to the
// caller.
func (ss *ShardSet) Run() {
	for {
		best, bt := -1, sim.Forever
		for i, s := range ss.shards {
			if t := s.eng.NextEventAt(); t < bt {
				best, bt = i, t
			}
		}
		if best < 0 {
			return
		}
		// Every cross-shard distance is positive (Partition enforces
		// it), so the window always admits the events at bt.
		ss.shards[best].eng.RunWindow(ss.windowFor(best))
	}
}

// satAdd adds two times, saturating at Forever.
func satAdd(a, b sim.Time) sim.Time {
	if a == sim.Forever || b == sim.Forever {
		return sim.Forever
	}
	if s := a + b; s >= a {
		return s
	}
	return sim.Forever
}
