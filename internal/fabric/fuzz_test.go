package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// decodeTopo turns fuzz bytes into a small topology: byte 0 picks 1–8
// nodes, one byte per node picks its kind (Host, Type2, Type3, Switch),
// the next byte picks 0–12 links, and each link takes three bytes —
// endpoint indices and a signed one-way latency in nanoseconds (0 keeps
// the calibrated default). Node specs keep their defaults, so no input
// can ask for a huge LLC. Short input ends the topology early.
func decodeTopo(data []byte) Topology {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	var t Topology
	b, _ := next()
	n := 1 + int(b)%8
	for i := 0; i < n; i++ {
		k, _ := next()
		t.Nodes = append(t.Nodes, NodeSpec{ID: fmt.Sprintf("n%d", i), Kind: NodeKind(k % 4)})
	}
	m, _ := next()
	for i := 0; i < int(m)%13; i++ {
		a, okA := next()
		z, okB := next()
		ow, okW := next()
		if !okA || !okB || !okW {
			break
		}
		t.Links = append(t.Links, LinkSpec{
			A:      t.Nodes[int(a)%n].ID,
			B:      t.Nodes[int(z)%n].ID,
			OneWay: sim.Time(int8(ow)) * sim.Nanosecond,
		})
	}
	return t
}

// FuzzTopologyBuild checks that every topology Validate accepts builds
// and partitions into a value or an error — never a panic — and that a
// partition places every node on a shard with positive lookahead between
// distinct shards. The checked-in corpus seeds a Star, a OneToOne rig
// and the generic topology of TestShardPartitionGenericTopology.
func FuzzTopologyBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		topo := decodeTopo(data)
		if topo.Validate() != nil {
			return
		}
		fab, err := Build(topo, nil)
		if err != nil {
			return
		}
		ss, err := fab.Partition()
		if err != nil {
			return
		}
		for _, n := range topo.Nodes {
			ss.NodeShard(n.ID)
		}
		for i := 0; i < ss.NumShards(); i++ {
			for j := 0; j < ss.NumShards(); j++ {
				if d := ss.Dist(i, j); i != j && d <= 0 {
					t.Fatalf("Dist(%d,%d) = %v, want positive lookahead", i, j, d)
				}
			}
		}
	})
}
