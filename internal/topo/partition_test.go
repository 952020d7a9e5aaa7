package topo

import (
	"reflect"
	"testing"

	"mpcc/internal/sim"
)

func TestPartitionComponents(t *testing.T) {
	cases := []struct {
		name  string
		links []string
		flows [][][]string
		want  [][]string
	}{
		{
			name:  "fig3c is one component",
			links: []string{"link1", "link2"},
			flows: [][][]string{{{"link1"}, {"link2"}}, {{"link2"}}},
			want:  [][]string{{"link1", "link2"}},
		},
		{
			name:  "disjoint single-path flows stay apart",
			links: []string{"a", "b"},
			flows: [][][]string{{{"a"}}, {{"b"}}},
			want:  [][]string{{"a"}, {"b"}},
		},
		{
			name:  "multipath flow glues parallel links",
			links: []string{"a", "b", "c"},
			flows: [][][]string{{{"a"}, {"b"}}, {{"c"}}},
			want:  [][]string{{"a", "b"}, {"c"}},
		},
		{
			name:  "serial path glues its hops",
			links: []string{"acc1", "acc2", "shared"},
			flows: [][][]string{{{"acc1", "shared"}, {"acc2", "shared"}}},
			want:  [][]string{{"acc1", "acc2", "shared"}},
		},
		{
			name:  "unused links become singletons",
			links: []string{"a", "b", "c"},
			flows: [][][]string{{{"b"}}},
			want:  [][]string{{"a"}, {"b"}, {"c"}},
		},
		{
			name:  "transitive sharing",
			links: []string{"a", "b", "c", "d"},
			flows: [][][]string{{{"a"}, {"b"}}, {{"b"}, {"c"}}, {{"d"}}},
			want:  [][]string{{"a", "b", "c"}, {"d"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := PartitionLinks(tc.links, tc.flows)
			if !reflect.DeepEqual(p.Components, tc.want) {
				t.Fatalf("components = %v, want %v", p.Components, tc.want)
			}
			for c, comp := range p.Components {
				for _, l := range comp {
					if p.ComponentOf(l) != c {
						t.Fatalf("ComponentOf(%s) = %d, want %d", l, p.ComponentOf(l), c)
					}
				}
			}
		})
	}
}

func TestPartitionClusters(t *testing.T) {
	top := Clusters(4)
	p := PartitionTopology(top)
	if len(p.Components) != 4 {
		t.Fatalf("Clusters(4) partitioned into %d components, want 4", len(p.Components))
	}
	net, engines := p.Build(top, 7)
	if len(engines) != 4 {
		t.Fatalf("built %d engines, want 4", len(engines))
	}
	if net.Eng != engines[0] {
		t.Fatalf("net default engine is not shard 0")
	}
	if engines[0] == engines[1] {
		t.Fatalf("shards share an engine")
	}
	for _, name := range net.LinkNames() {
		if got, want := net.Link(name).Engine(), engines[p.ComponentOf(name)]; got != want {
			t.Fatalf("link %s is on the wrong engine", name)
		}
	}
	// Paths inside a cluster build on that cluster's engine.
	pth := net.Path(clusterLink(2, 1))
	if pth.Engine() != engines[2] {
		t.Fatalf("path engine is not its cluster's shard engine")
	}
}

func TestPartitionSingleComponentMatchesPlainBuild(t *testing.T) {
	top := Fig3c()
	p := PartitionTopology(top)
	if len(p.Components) != 1 {
		t.Fatalf("Fig3c should be one component, got %v", p.Components)
	}
	net, engines := p.Build(top, 11)
	if len(engines) != 1 || net.Eng != engines[0] {
		t.Fatalf("single-component build should use exactly one engine")
	}
	plain := top.Build(sim.NewEngine(11))
	if !reflect.DeepEqual(net.LinkNames(), plain.LinkNames()) {
		t.Fatalf("link order differs: %v vs %v", net.LinkNames(), plain.LinkNames())
	}
}
