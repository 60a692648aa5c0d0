package fabric

import (
	"fmt"

	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/timing"
)

// hdrBytes is the protocol-header payload of a request/completion flit
// that carries no data (read requests, write acknowledgements).
const hdrBytes = 64

// edge direction indices: 0 sends A→B, 1 sends B→A (mirroring
// interconnect.Dir's down/up).
const (
	dirAB = 0
	dirBA = 1
)

// flink is a compiled fabric link: per-direction serialization
// (bandwidth), bounded outstanding credits, byte accounting, and — when
// the sending endpoint of a direction is a switch — the egress port that
// arbitrates access to the wire.
type flink struct {
	spec    LinkSpec // normalized
	a, b    string
	dirs    [2]*sim.Resource
	credits [2]*sim.Credits
	bytes   [2]uint64
	ports   [2]*port

	// occN/occT memoize the last wire-occupancy computation: transfers
	// overwhelmingly repeat the same payload size (KV block or line), and
	// the float round trip in timing.Serialize shows up on the serving
	// hot path. Links are driven from a single shard's engine, so a
	// one-entry cache needs no synchronization.
	occN int
	occT sim.Time
}

// occ returns the wire occupancy of n payload bytes on this link.
func (l *flink) occ(n int) sim.Time {
	if n != l.occN {
		l.occN = n
		l.occT = timing.Serialize(n, l.spec.BytesPerSec)
	}
	return l.occT
}

func (l *flink) name() string { return l.a + "-" + l.b }

// port is one switch egress port: a bounded FIFO over the Credits
// primitive. Transfers acquire a slot before touching the wire; when all
// slots are held the acquire is delayed to the earliest completion, in
// arrival (call) order — deterministic FIFO arbitration. The stats make
// congestion observable: Waited accumulates arbitration delay, PeakQueue
// is the largest in-flight depth seen at a claim.
type port struct {
	sw, link string
	credits  *sim.Credits
	forward  sim.Time
	claims   uint64
	waited   sim.Time
	peakQ    int
}

// claim admits a transfer arriving at the port at now; the returned time
// is when the transfer may start on the wire (after arbitration and the
// switch's store-and-forward latency). release must be called with the
// transfer's wire completion time.
func (p *port) claim(now sim.Time) sim.Time {
	// Transfers still in flight at now, plus this one, is the queue depth
	// an observer would see at the port. Credits.InFlightAt answers that
	// exactly — including slots an exhausted Acquire consumed early — so
	// the port no longer shadows the pool with its own completion ring.
	if d := p.credits.InFlightAt(now) + 1; d > p.peakQ {
		p.peakQ = d
	}
	start := p.credits.Acquire(now)
	p.waited += start - now
	p.claims++
	return start + p.forward
}

func (p *port) release(done sim.Time) {
	p.credits.Complete(done)
}

// Expander is a compiled switch-attached Type-3 node: pooled memory every
// host on the fabric reaches through Transfer. Its controller is one
// serialized DDR5 channel, so expander bandwidth saturates independently
// of the links feeding it.
type Expander struct {
	id                   string
	mem                  *sim.Resource
	readLat, writeLat    sim.Time
	bytesPerSec          float64
	readBytes, writeByte uint64
}

// ID returns the expander's node ID.
func (x *Expander) ID() string { return x.id }

// ReadBytes and WriteBytes report serviced payload volume.
func (x *Expander) ReadBytes() uint64  { return x.readBytes }
func (x *Expander) WriteBytes() uint64 { return x.writeByte }

// service runs one access of n payload bytes through the expander's
// memory controller and returns the completion time.
func (x *Expander) service(n int, now sim.Time, write bool) sim.Time {
	lat := x.readLat
	if write {
		lat = x.writeLat
		x.writeByte += uint64(n)
	} else {
		x.readBytes += uint64(n)
	}
	occ := lat + timing.Serialize(n, x.bytesPerSec)
	return x.mem.Claim(now, occ) + occ
}

// pathHop is one compiled routing step: send over l in direction d.
type pathHop struct {
	l *flink
	d int
}

// adjEdge is one adjacency entry, in Links declaration order (which makes
// BFS route resolution deterministic).
type adjEdge struct {
	peer string
	l    *flink
	d    int
}

// Fabric is a compiled topology: every node wired into live simulation
// components sharing one sim.Engine.
type Fabric struct {
	p    *timing.Params
	topo Topology
	eng  *sim.Engine

	kinds     map[string]NodeKind
	hosts     map[string]*host.Host
	devices   map[string]*device.Device
	expanders map[string]*Expander
	links     []*flink
	adj       map[string][]adjEdge
	paths     map[[2]string][]pathHop

	hostIDs, expanderIDs []string
}

// Build validates topo and compiles it into a Fabric under the timing
// model p (nil takes the calibrated defaults). Direct host–device links
// use the host's built-in calibrated CXL attach path (exactly what the
// single-rig experiments always measured); host–switch, switch–switch
// and switch–expander links compile to fabric links with the LinkSpec's
// (defaulted) parameters.
func Build(topo Topology, p *timing.Params) (*Fabric, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		p = timing.Default()
	}
	f := &Fabric{
		p:         p,
		topo:      topo,
		eng:       sim.NewEngine(),
		kinds:     make(map[string]NodeKind, len(topo.Nodes)),
		hosts:     map[string]*host.Host{},
		devices:   map[string]*device.Device{},
		expanders: map[string]*Expander{},
		adj:       map[string][]adjEdge{},
		paths:     map[[2]string][]pathHop{},
	}
	swSpec := map[string]NodeSpec{}
	for _, n := range topo.Nodes {
		n = n.normalized()
		f.kinds[n.ID] = n.Kind
		switch n.Kind {
		case Host:
			h, err := host.New(p, host.Config{LLCBytes: n.LLCBytes, LLCWays: n.LLCWays, Cores: n.Cores})
			if err != nil {
				return nil, fmt.Errorf("fabric: node %q: %w", n.ID, err)
			}
			f.hosts[n.ID] = h
			f.hostIDs = append(f.hostIDs, n.ID)
		case Switch:
			swSpec[n.ID] = n
		}
	}
	for _, l := range topo.Links {
		ka, kb := f.kinds[l.A], f.kinds[l.B]
		// Direct host–device attach: the device rides the host's home
		// agent and calibrated CXL link; no fabric link is created.
		if ka == Host && (kb == Type2 || kb == Type3) {
			if err := f.attach(l.A, l.B, kb); err != nil {
				return nil, err
			}
			continue
		}
		if kb == Host && (ka == Type2 || ka == Type3) {
			if err := f.attach(l.B, l.A, ka); err != nil {
				return nil, err
			}
			continue
		}
		spec := l.normalized(p)
		fl := &flink{spec: spec, a: l.A, b: l.B}
		for d := 0; d < 2; d++ {
			dirName := fl.name() + [2]string{".ab", ".ba"}[d]
			fl.dirs[d] = sim.NewResource(dirName)
			fl.credits[d] = sim.NewCredits(dirName+".cr", spec.Credits)
		}
		// Egress ports: one per direction whose sender is a switch.
		if ka == Switch {
			s := swSpec[l.A]
			fl.ports[dirAB] = &port{sw: l.A, link: fl.name(), forward: s.Forward,
				credits: sim.NewCredits(fl.name()+".port", s.PortCredits)}
		}
		if kb == Switch {
			s := swSpec[l.B]
			fl.ports[dirBA] = &port{sw: l.B, link: fl.name(), forward: s.Forward,
				credits: sim.NewCredits(fl.name()+".port", s.PortCredits)}
		}
		f.links = append(f.links, fl)
		f.adj[l.A] = append(f.adj[l.A], adjEdge{peer: l.B, l: fl, d: dirAB})
		f.adj[l.B] = append(f.adj[l.B], adjEdge{peer: l.A, l: fl, d: dirBA})
		// A switch-attached Type-3 node compiles to a shared expander.
		for _, end := range []struct {
			id   string
			kind NodeKind
		}{{l.A, ka}, {l.B, kb}} {
			if end.kind == Type3 {
				f.expanders[end.id] = &Expander{
					id:          end.id,
					mem:         sim.NewResource(end.id + ".mem"),
					readLat:     p.DRAM.DDR5Read,
					writeLat:    p.DRAM.DDR5Write,
					bytesPerSec: p.DRAM.ChannelBytesPerSec,
				}
				f.expanderIDs = append(f.expanderIDs, end.id)
			}
		}
	}
	return f, nil
}

// MustBuild is Build for static topologies.
func MustBuild(topo Topology, p *timing.Params) *Fabric {
	f, err := Build(topo, p)
	if err != nil {
		panic(err)
	}
	return f
}

// attach wires a directly-linked CXL device onto its host.
func (f *Fabric) attach(hostID, devID string, kind NodeKind) error {
	h := f.hosts[hostID]
	if h.Dev != nil {
		return fmt.Errorf("fabric: host %q already has a directly attached device", hostID)
	}
	cfg := device.DefaultConfig()
	if kind == Type3 {
		cfg.Type = cxl.Type3
	} else {
		cfg.Type = cxl.Type2
	}
	d, err := h.Attach(cfg)
	if err != nil {
		return fmt.Errorf("fabric: attach %q to %q: %w", devID, hostID, err)
	}
	f.devices[devID] = d
	return nil
}

// Engine returns the fabric's shared event engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Params returns the timing model the fabric was compiled under.
func (f *Fabric) Params() *timing.Params { return f.p }

// Topology returns the compiled topology.
func (f *Fabric) Topology() Topology { return f.topo }

// Host returns the compiled host for a Host node.
func (f *Fabric) Host(id string) *host.Host {
	h, ok := f.hosts[id]
	if !ok {
		panic(fmt.Sprintf("fabric: no host node %q", id))
	}
	return h
}

// Device returns the attached device of a directly-linked Type2/Type3
// node.
func (f *Fabric) Device(id string) *device.Device {
	d, ok := f.devices[id]
	if !ok {
		panic(fmt.Sprintf("fabric: no directly attached device node %q", id))
	}
	return d
}

// Expander returns the compiled shared expander of a switch-attached
// Type3 node.
func (f *Fabric) Expander(id string) *Expander {
	x, ok := f.expanders[id]
	if !ok {
		panic(fmt.Sprintf("fabric: no expander node %q", id))
	}
	return x
}

// Hosts lists host node IDs in declaration order; Expanders lists
// switch-attached Type3 node IDs in link-declaration order.
func (f *Fabric) Hosts() []string     { return f.hostIDs }
func (f *Fabric) Expanders() []string { return f.expanderIDs }

// path resolves (and caches) the route from one node to another: BFS over
// the fabric links in declaration order, so route choice is deterministic
// and minimal-hop.
func (f *Fabric) path(from, to string) []pathHop {
	if from == to {
		panic(fmt.Sprintf("fabric: path %q to itself", from))
	}
	key := [2]string{from, to}
	if p, ok := f.paths[key]; ok {
		return p
	}
	if _, ok := f.kinds[from]; !ok {
		panic(fmt.Sprintf("fabric: unknown node %q", from))
	}
	if _, ok := f.kinds[to]; !ok {
		panic(fmt.Sprintf("fabric: unknown node %q", to))
	}
	type visit struct {
		prev string
		hop  pathHop
	}
	visited := map[string]visit{from: {}}
	queue := []string{from}
	for len(queue) > 0 && visited[to].prev == "" && to != from {
		id := queue[0]
		queue = queue[1:]
		for _, e := range f.adj[id] {
			if _, ok := visited[e.peer]; ok {
				continue
			}
			visited[e.peer] = visit{prev: id, hop: pathHop{l: e.l, d: e.d}}
			queue = append(queue, e.peer)
		}
	}
	if _, ok := visited[to]; !ok {
		panic(fmt.Sprintf("fabric: no fabric route %s -> %s", from, to))
	}
	var rev []pathHop
	for id := to; id != from; id = visited[id].prev {
		rev = append(rev, visited[id].hop)
	}
	hops := make([]pathHop, len(rev))
	for i := range rev {
		hops[i] = rev[len(rev)-1-i]
	}
	f.paths[key] = hops
	return hops
}

// sendHop moves n payload bytes over one link hop starting no earlier
// than now: switch egress arbitration (when the sender is a switch),
// link credits, wire serialization, propagation.
func (f *Fabric) sendHop(h pathHop, n int, now sim.Time) sim.Time {
	t := now
	p := h.l.ports[h.d]
	if p != nil {
		t = p.claim(t)
	}
	cstart := h.l.credits[h.d].Acquire(t)
	occ := h.l.occ(n)
	start := h.l.dirs[h.d].Claim(cstart, occ)
	done := start + occ + h.l.spec.OneWay
	h.l.credits[h.d].Complete(done)
	h.l.bytes[h.d] += uint64(n)
	if p != nil {
		p.release(done)
	}
	return done
}

// Transfer moves n payload bytes from node `from` to node `to` along the
// compiled route, claiming every link and switch port on the way, and
// returns the delivery time. Congestion emerges: concurrent transfers
// through a shared switch port or link direction queue behind each other
// exactly as the Credits/Resource primitives dictate.
func (f *Fabric) Transfer(from, to string, n int, now sim.Time) sim.Time {
	t := now
	for _, h := range f.path(from, to) {
		t = f.sendHop(h, n, t)
	}
	return t
}

// ReadShared reads n bytes of a switch-attached expander's memory from a
// host: a header-only request rides the fabric to the expander, the
// expander's controller services the read, and the data returns over the
// reverse path. The returned time is data arrival at the host.
func (f *Fabric) ReadShared(hostID, expID string, n int, now sim.Time) sim.Time {
	x := f.Expander(expID)
	arrive := f.Transfer(hostID, expID, hdrBytes, now)
	ready := x.service(n, arrive, false)
	return f.Transfer(expID, hostID, n, ready)
}

// WriteShared writes n bytes from a host into a switch-attached
// expander's memory; the returned time is acknowledgement arrival back at
// the host.
func (f *Fabric) WriteShared(hostID, expID string, n int, now sim.Time) sim.Time {
	x := f.Expander(expID)
	arrive := f.Transfer(hostID, expID, n, now)
	done := x.service(n, arrive, true)
	return f.Transfer(expID, hostID, hdrBytes, done)
}

// LinkStat is one fabric link's accounted traffic. AB counts bytes sent
// from the link's declared A endpoint toward B; BA the reverse.
type LinkStat struct {
	Link            string
	ABytes, BABytes uint64
}

// LinkStats reports per-link payload traffic in link declaration order.
func (f *Fabric) LinkStats() []LinkStat {
	stats := make([]LinkStat, len(f.links))
	for i, l := range f.links {
		stats[i] = LinkStat{Link: l.name(), ABytes: l.bytes[dirAB], BABytes: l.bytes[dirBA]}
	}
	return stats
}

// PortStat is one switch egress port's arbitration record.
type PortStat struct {
	Switch, Link string
	Claims       uint64
	PeakQueue    int
	Waited       sim.Time
}

// PortStats reports switch egress-port arbitration stats in link
// declaration order (at most one port per link direction).
func (f *Fabric) PortStats() []PortStat {
	var stats []PortStat
	for _, l := range f.links {
		for d := 0; d < 2; d++ {
			if p := l.ports[d]; p != nil {
				stats = append(stats, PortStat{Switch: p.sw, Link: p.link,
					Claims: p.claims, PeakQueue: p.peakQ, Waited: p.waited})
			}
		}
	}
	return stats
}
