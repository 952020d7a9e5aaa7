package main

import (
	"mpcc/internal/exp"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// standUp does the set-up work exp.Run does for s, through the same public
// functions, and stops before the engine runs: fresh engines, the
// topology's links (Topology.Build, or Partition.Build for a sharded spec),
// and either every static flow's connection (exp.Attach) or, for a churn
// spec, the farm's admission servers.
func standUp(s exp.Spec, tr *tracer, trace string, parent int) {
	sp := tr.begin(trace, "topo.Build", s.Topo.Name, parent)
	var net *topo.Net
	var part *topo.Partition
	var engines []*sim.Engine
	if s.Shards > 0 {
		part = topo.PartitionTopology(s.Topo)
		net, engines = part.Build(s.Topo, s.Seed)
	} else {
		eng := sim.NewEngine(s.Seed)
		net = s.Topo.Build(eng)
		engines = []*sim.Engine{eng}
	}
	tr.end(sp)
	if s.Churn != nil {
		for _, sv := range s.Churn.Servers {
			transport.NewServer(sv.Name, sv.MaxConns, sv.BudgetBytes)
		}
		return
	}
	spProto := s.SPProto
	if spProto == "" {
		spProto = s.Proto.SinglePathPeer()
	}
	for _, f := range s.Topo.Flows {
		proto := s.Proto
		if !f.Multipath() {
			proto = spProto
		}
		eng := engines[0]
		if part != nil {
			eng = engines[part.ComponentOf(f.Paths[0][0])]
		}
		paths := make([]*netem.Path, len(f.Paths))
		for i, names := range f.Paths {
			paths[i] = net.Path(names...)
		}
		sp := tr.begin(trace, "exp.Attach", f.Name, parent)
		conn := exp.Attach(eng, f.Name, proto, paths, exp.AttachOptions{Probes: s.Probes})
		conn.SetApp(transport.Bulk{}, nil)
		conn.Start(0)
		tr.end(sp)
	}
}
