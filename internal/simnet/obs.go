package simnet

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// NetCounters mirrors the network's per-shard traffic and drop accounting
// into a metrics registry so the live ops endpoint can expose it mid-run.
// The counters are a one-way copy of state the network already maintains
// (Peer byte counters, netShard.drops); nothing reads them back, so an
// instrumented run is bit-identical to an uninstrumented one. The per-cause
// drop counters are registered from the trace.DropCauses taxonomy table —
// one source of truth with the trace ops and DropStats fields.
type NetCounters struct {
	Sent, Delivered *obs.Counter
	BytesSent       *obs.Counter
	drops           [trace.NumDropCauses]*obs.Counter
}

// SetObs attaches traffic counters from the given registry, which must be
// sized for the network's shard count (each shard writes only its own slot).
// Call at setup or barrier context, before traffic flows.
func (n *Network) SetObs(reg *obs.Registry) {
	if reg.Shards() != len(n.shards) {
		panic("simnet: SetObs with a registry sized for a different shard count")
	}
	c := &NetCounters{
		Sent:      reg.Counter("nylon_net_datagrams_sent_total", "datagrams transmitted (after NAT egress)"),
		Delivered: reg.Counter("nylon_net_datagrams_delivered_total", "datagrams delivered to an engine"),
		BytesSent: reg.Counter("nylon_net_bytes_sent_total", "payload bytes transmitted"),
	}
	for cause, info := range trace.DropCauses {
		c.drops[cause] = reg.Counter(info.Metric, info.Help)
	}
	n.counters = c
}
