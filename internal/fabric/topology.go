// Package fabric models a multi-host CXL fabric as a declarative typed
// topology graph — host, Type-2 accelerator, Type-3 expander and switch
// nodes joined by links with per-link latency/bandwidth/credit
// parameters — that compiles (Build) into wired simulation components:
// one host.Host per host node, attached device.Devices for
// directly-linked CXL devices, shared-memory Expanders for
// switch-attached Type-3 nodes, and switch egress ports arbitrated FIFO
// over the engine's Credits primitive so fabric congestion is
// first-class, observable and deterministic.
//
// The single-host rigs of internal/experiments are the 1×1 preset
// (OneToOne); cluster-scale serving (internal/infer/cluster) builds a
// Star of N hosts sharing pooled expanders behind one switch. Everything
// the compiled components do is resolved from explicit claim order, so a
// fixed sequence of Transfer calls replays with identical timing on
// every run — the same determinism contract the rest of the simulator
// keeps.
package fabric

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/timing"
)

// NodeKind types a topology node.
type NodeKind uint8

// Node kinds.
const (
	// Host is a CPU socket with its own LLC, memory and cores.
	Host NodeKind = iota
	// Type2 is a CXL Type-2 accelerator (cache + memory, D2D/D2H ops).
	// A Type2 node must link directly to a Host: the accelerator model
	// rides the host's home agent.
	Type2
	// Type3 is a CXL Type-3 memory expander. Linked to a Host it is the
	// classic direct-attach expander; linked to a Switch it compiles to a
	// shared pooled-memory Expander every host can reach.
	Type3
	// Switch is a CXL switch: it forwards traffic between its links, and
	// each egress port is a contended, FIFO-arbitrated resource.
	Switch
)

// String names the kind as topology dumps print it.
func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Type2:
		return "type2"
	case Type3:
		return "type3"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// NodeSpec declares one node. Zero-valued knobs take kind-appropriate
// defaults at Build (and are normalized identically by CanonicalKey).
type NodeSpec struct {
	ID   string
	Kind NodeKind

	// Host shape (Kind == Host): LLC geometry and core count.
	// Zero values take the small-host defaults NewRig-scale sims use.
	LLCBytes, LLCWays, Cores int

	// Switch shape (Kind == Switch): PortCredits bounds the transfers a
	// single egress port accepts concurrently (FIFO beyond that), and
	// Forward is the per-hop store-and-forward latency.
	PortCredits int
	Forward     sim.Time
}

// LinkSpec declares a full-duplex link between two nodes. Zero-valued
// parameters default to the calibrated CXL link (timing.Params.CXL).
type LinkSpec struct {
	A, B string
	// OneWay is the one-direction propagation latency.
	OneWay sim.Time
	// BytesPerSec is the per-direction payload bandwidth.
	BytesPerSec float64
	// Credits bounds outstanding transfers per direction.
	Credits int
}

// Topology is the declarative fabric description Build compiles.
type Topology struct {
	Nodes []NodeSpec
	Links []LinkSpec
}

// Node-knob defaults, applied at Build and in CanonicalKey.
const (
	defaultLLCBytes    = 1 << 20
	defaultLLCWays     = 16
	defaultCores       = 4
	defaultPortCredits = 8
	defaultLinkCredits = 16
)

// defaultForward is the switch per-hop forwarding latency when
// NodeSpec.Forward is zero (store-and-forward flit processing; CXL
// switches add a few tens of nanoseconds per hop).
const defaultForward = 30 * sim.Nanosecond

// normalized returns the spec with zero knobs replaced by defaults.
func (n NodeSpec) normalized() NodeSpec {
	if n.Kind == Host {
		if n.LLCBytes == 0 {
			n.LLCBytes = defaultLLCBytes
		}
		if n.LLCWays == 0 {
			n.LLCWays = defaultLLCWays
		}
		if n.Cores == 0 {
			n.Cores = defaultCores
		}
	}
	if n.Kind == Switch {
		if n.PortCredits == 0 {
			n.PortCredits = defaultPortCredits
		}
		if n.Forward == 0 {
			n.Forward = defaultForward
		}
	}
	return n
}

// normalized returns the spec with zero parameters replaced by the
// calibrated CXL link defaults from p.
func (l LinkSpec) normalized(p *timing.Params) LinkSpec {
	if l.OneWay == 0 {
		l.OneWay = p.CXL.OneWay
	}
	if l.BytesPerSec == 0 {
		l.BytesPerSec = p.CXL.BytesPerSec
	}
	if l.Credits == 0 {
		l.Credits = defaultLinkCredits
	}
	return l
}

// Validate checks the topology's structural rules:
//
//   - node IDs are unique and non-empty;
//   - links join two distinct, declared nodes, at most one link per pair;
//   - no host–host or device–device direct links (traffic between hosts
//     or devices crosses a switch, as in a real fabric);
//   - Type2 nodes link exactly once, directly to a Host (the accelerator
//     model rides its host's home agent);
//   - Type3 nodes link exactly once, to a Host or a Switch;
//   - the graph is connected.
func (t Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("fabric: topology has no nodes")
	}
	byID := make(map[string]NodeSpec, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.ID == "" {
			return fmt.Errorf("fabric: node with empty ID")
		}
		if _, dup := byID[n.ID]; dup {
			return fmt.Errorf("fabric: duplicate node ID %q", n.ID)
		}
		if n.Kind > Switch {
			return fmt.Errorf("fabric: node %q has unknown kind %d", n.ID, n.Kind)
		}
		byID[n.ID] = n
	}
	degree := make(map[string]int, len(t.Nodes))
	adj := make(map[string][]string, len(t.Nodes))
	seen := make(map[[2]string]bool, len(t.Links))
	for _, l := range t.Links {
		a, okA := byID[l.A]
		b, okB := byID[l.B]
		if !okA || !okB {
			return fmt.Errorf("fabric: link %s-%s references undeclared node", l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("fabric: self-link on %q", l.A)
		}
		key := [2]string{min(l.A, l.B), max(l.A, l.B)}
		if seen[key] {
			return fmt.Errorf("fabric: duplicate link %s-%s", key[0], key[1])
		}
		seen[key] = true
		if a.Kind == Host && b.Kind == Host {
			return fmt.Errorf("fabric: host-host link %s-%s (route through a switch)", l.A, l.B)
		}
		if a.Kind != Host && a.Kind != Switch && b.Kind != Host && b.Kind != Switch {
			return fmt.Errorf("fabric: device-device link %s-%s (route through a switch)", l.A, l.B)
		}
		if a.Kind == Type2 && b.Kind != Host || b.Kind == Type2 && a.Kind != Host {
			return fmt.Errorf("fabric: Type2 node in link %s-%s must attach directly to a host", l.A, l.B)
		}
		if l.OneWay < 0 || l.BytesPerSec < 0 || l.Credits < 0 {
			return fmt.Errorf("fabric: negative parameter on link %s-%s", l.A, l.B)
		}
		degree[l.A]++
		degree[l.B]++
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, n := range t.Nodes {
		switch n.Kind {
		case Type2, Type3:
			if degree[n.ID] != 1 {
				return fmt.Errorf("fabric: %s node %q has %d links, want exactly 1",
					n.Kind, n.ID, degree[n.ID])
			}
		}
	}
	if len(t.Nodes) > 1 {
		// Connectivity: BFS from the first node.
		visited := map[string]bool{t.Nodes[0].ID: true}
		queue := []string{t.Nodes[0].ID}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, nb := range adj[id] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		if len(visited) != len(t.Nodes) {
			return fmt.Errorf("fabric: topology is disconnected (%d of %d nodes reachable)",
				len(visited), len(t.Nodes))
		}
	}
	return nil
}

// CanonicalKey renders the topology as a stable, self-delimiting string
// for result-cache keys: node order and link orientation do not matter
// (both are sorted), and zero-valued knobs are normalized to the same
// defaults Build substitutes, so two topologies key identically iff
// Build wires observationally identical fabrics from them under p.
func (t Topology) CanonicalKey(p *timing.Params) string {
	if p == nil {
		p = timing.Default()
	}
	nodes := make([]string, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		n = n.normalized()
		switch n.Kind {
		case Host:
			nodes = append(nodes, fmt.Sprintf("%s:host/llc=%d/%d,cores=%d",
				n.ID, n.LLCBytes, n.LLCWays, n.Cores))
		case Switch:
			nodes = append(nodes, fmt.Sprintf("%s:switch/cr=%d,fwd=%d",
				n.ID, n.PortCredits, int64(n.Forward)))
		default:
			nodes = append(nodes, fmt.Sprintf("%s:%s", n.ID, n.Kind))
		}
	}
	sort.Strings(nodes)
	links := make([]string, 0, len(t.Links))
	for _, l := range t.Links {
		l = l.normalized(p)
		a, b := min(l.A, l.B), max(l.A, l.B)
		links = append(links, fmt.Sprintf("%s-%s:ow=%d,bw=%g,cr=%d",
			a, b, int64(l.OneWay), l.BytesPerSec, l.Credits))
	}
	sort.Strings(links)
	return fmt.Sprintf("topo{nodes=[%s],links=[%s]}",
		strings.Join(nodes, ";"), strings.Join(links, ";"))
}

// OneToOne is the classic single-host rig as a topology: one host
// directly attached to one CXL device of the given kind (Type2 or
// Type3). The host shape is taken from the spec fields of hostShape
// (zero values default like any NodeSpec). Node IDs are "h0" and "d0".
func OneToOne(devKind NodeKind, hostShape NodeSpec) Topology {
	if devKind != Type2 && devKind != Type3 {
		panic(fmt.Sprintf("fabric: OneToOne device kind %v", devKind))
	}
	hostShape.ID = "h0"
	hostShape.Kind = Host
	return Topology{
		Nodes: []NodeSpec{hostShape, {ID: "d0", Kind: devKind}},
		Links: []LinkSpec{{A: "h0", B: "d0"}},
	}
}

// Star is the pooled-memory cluster topology: hosts h0..h(n-1) and
// Type-3 expanders x0..x(e-1) all attached to one switch sw0. hostShape
// and swShape carry the per-kind knobs (IDs and kinds are overwritten);
// link carries the per-link parameters applied to every edge (A/B are
// overwritten).
func Star(hosts, expanders int, hostShape, swShape NodeSpec, link LinkSpec) Topology {
	if hosts <= 0 || expanders <= 0 {
		panic(fmt.Sprintf("fabric: Star(%d hosts, %d expanders)", hosts, expanders))
	}
	swShape.ID = "sw0"
	swShape.Kind = Switch
	t := Topology{Nodes: []NodeSpec{swShape}}
	for i := 0; i < hosts; i++ {
		h := hostShape
		h.ID = fmt.Sprintf("h%d", i)
		h.Kind = Host
		t.Nodes = append(t.Nodes, h)
		l := link
		l.A, l.B = h.ID, "sw0"
		t.Links = append(t.Links, l)
	}
	for i := 0; i < expanders; i++ {
		x := NodeSpec{ID: fmt.Sprintf("x%d", i), Kind: Type3}
		t.Nodes = append(t.Nodes, x)
		l := link
		l.A, l.B = "sw0", x.ID
		t.Links = append(t.Links, l)
	}
	return t
}
