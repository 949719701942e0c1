package probes

import (
	"time"

	"repro/internal/ident"
	"repro/internal/nat"
	"repro/internal/stats"
)

const (
	// natRemotes is the live state per device: 64 remotes, which is 64
	// filter rules on one session for the cone classes and 64 sessions on a
	// symmetric device.
	natRemotes = 64
	natRuleTTL = 90_000
)

var natPriv = ident.Endpoint{IP: 0xc0a80001, Port: 9000}

func natRemote(i int) ident.Endpoint {
	return ident.Endpoint{IP: ident.IP(0x0b000000 + uint32(i)), Port: 9000}
}

// natDevice builds a device with natRemotes live remotes and returns the
// public mapping each remote sees.
func natDevice(class ident.NATClass) (*nat.Device, []ident.Endpoint) {
	dev := nat.NewDevice(class, 0x0a000001, natRuleTTL)
	mapped := make([]ident.Endpoint, natRemotes)
	for i := range mapped {
		mapped[i] = dev.Outbound(0, natPriv, natRemote(i))
	}
	return dev, mapped
}

// natProbe times translation and filtering per NAT class: the per-datagram
// calls the simulated network makes (Outbound at send, Inbound at delivery)
// and the expiry sweep.
func natProbe() ([]Metric, error) {
	var out []Metric
	for _, c := range []struct {
		name  string
		class ident.NATClass
	}{
		{"rc", ident.RestrictedCone}, {"prc", ident.PortRestrictedCone}, {"sym", ident.Symmetric},
	} {
		dev, mapped := natDevice(c.class)
		stranger := ident.Endpoint{IP: 0x0c000001, Port: 4242}
		const now = 1000 // every rule live
		sink := 0
		outbound := nsPerOp(natRemotes, func() {
			for i := 0; i < natRemotes; i++ {
				sink += int(dev.Outbound(now, natPriv, natRemote(i)).Port)
			}
		})
		hit := nsPerOp(natRemotes, func() {
			for i := 0; i < natRemotes; i++ {
				if _, ok := dev.Inbound(now, natRemote(i), mapped[i]); ok {
					sink++
				}
			}
		})
		miss := nsPerOp(natRemotes, func() {
			for i := 0; i < natRemotes; i++ {
				if _, ok := dev.Inbound(now, stranger, mapped[i]); ok {
					sink++
				}
			}
		})
		if sink < 0 {
			panic("unreachable") // keeps the loops' results live
		}
		out = append(out,
			ns("nat."+c.name+".outbound_ns", outbound),
			ns("nat."+c.name+".inbound_hit_ns", hit),
			ns("nat."+c.name+".inbound_miss_ns", miss),
			ns("nat."+c.name+".gc_ns_per_rule", natGC(c.class)),
		)
	}
	return out, nil
}

// natGC times Device.GC per rule reclaimed. A cone device keeps one session:
// one remote is refreshed so the session survives and GC compacts the 63
// expired rules out of its filter table. A symmetric device keeps a session
// per remote, and GC sweeps all 64 expired ones. GC consumes its input, so
// each batch sweeps fresh devices.
func natGC(class ident.NATClass) float64 {
	const (
		devices = 128
		later   = 10 * natRuleTTL
	)
	reclaimed := natRemotes - 1
	if class == ident.Symmetric {
		reclaimed = natRemotes
	}
	samples := make([]float64, batches)
	for b := range samples {
		devs := make([]*nat.Device, devices)
		for i := range devs {
			devs[i], _ = natDevice(class)
			if class != ident.Symmetric {
				devs[i].Outbound(later, natPriv, natRemote(0))
			}
		}
		start := time.Now()
		for _, d := range devs {
			d.GC(later)
		}
		samples[b] = float64(time.Since(start).Nanoseconds()) / float64(devices*reclaimed)
	}
	return stats.Quantile(samples, 0.5)
}
