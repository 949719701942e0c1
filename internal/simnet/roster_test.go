package simnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestRosterIsAddressPlan pins the invariant every address lookup rests on:
// slot i of the roster owns public IP pubIPBase+i. Over a world of every
// attachment kind — public, each filtering NAT class, UPnP — attached out of ID
// order the way exp.build does (public peers first, then natted), and over a
// captured-and-restored copy of it on another shard count, every peer is the
// owner of its public IP, the peer of its ID, and the destination of a datagram
// to its advertised endpoint; a public peer's IP under any other port is
// nobody's.
func TestRosterIsAddressPlan(t *testing.T) {
	classes := []ident.NATClass{ // by ID-1
		ident.Symmetric, ident.Public, ident.RestrictedCone, ident.PortRestrictedCone,
		ident.Public, ident.FullCone, ident.PortRestrictedCone, ident.Public, ident.Symmetric,
	}
	upnp := map[ident.NodeID]bool{4: true, 9: true}
	_, orig := newNet()
	for pass := 0; pass < 2; pass++ {
		for i, class := range classes {
			id := ident.NodeID(i + 1)
			if (class == ident.Public) != (pass == 0) {
				continue
			}
			if upnp[id] {
				orig.AddPeerUPnP(id, class, holeTimeout, genericFactory(int64(id)))
			} else {
				orig.AddPeer(id, class, holeTimeout, genericFactory(int64(id)))
			}
		}
	}

	var enc snapshot.Encoder
	orig.State(enc.Codec(), nil)
	dec := snapshot.NewDecoder(enc.Bytes())
	restored := NewSharded(sim.NewSharded(4, 1, latency), latency)
	restored.State(dec.Codec(), func(p *Peer) core.Engine {
		return genericFactory(int64(p.ID))(p.Descriptor())
	})
	if err := dec.Finish(); err != nil {
		t.Fatalf("restore: %v", err)
	}

	for _, w := range []struct {
		name string
		net  *Network
	}{{"attached", orig}, {"restored", restored}} {
		n, sh, msg := w.net, &w.net.shards[0], &wire.Message{Kind: wire.KindPing}
		if n.PeerCount() != len(classes) || len(n.Peers()) != len(classes) {
			t.Fatalf("%s: %d slots, %d IDs, want %d of each", w.name, n.PeerCount(), len(n.Peers()), len(classes))
		}
		slot := 0
		n.EachPeer(func(p *Peer) {
			pubIP := ident.IP(pubIPBase + uint32(slot))
			if q := orig.bySlot[slot]; p.ID != q.ID || p.Addr != q.Addr || p.Priv != q.Priv {
				t.Errorf("%s: slot %d holds %v at %v/%v, want %v at %v/%v", w.name, slot, p.ID, p.Addr, p.Priv, q.ID, q.Addr, q.Priv)
			}
			slot++
			if p.Class != classes[p.ID-1] || p.Addr.IP != pubIP || (p.Device != nil && p.Device.PublicIP() != pubIP) {
				t.Errorf("%s: peer %v (%v) at %v, want public IP %v", w.name, p.ID, p.Class, p.Addr, pubIP)
			}
			if q, ok := n.OwnerOfIP(pubIP); !ok || q != p {
				t.Errorf("%s: OwnerOfIP(%v) = %v, want peer %v", w.name, pubIP, q, p.ID)
			}
			if q := n.Peer(p.ID); q != p || n.Peers()[p.ID-1] != p {
				t.Errorf("%s: Peer(%v) = %v", w.name, p.ID, q)
			}
			// The join handshake opened every filtering NAT toward the
			// introducer, so that is where the probe datagram comes from.
			if q, ok := n.resolve(sh, 0, bootstrapDst, p.Addr, msg, 0); !ok || q != p {
				t.Errorf("%s: datagram to %v resolved to %v, want peer %v", w.name, p.Addr, q, p.ID)
			}
			if p.Device == nil {
				before := n.DropTotals()[trace.DropAddr]
				wrong := ident.Endpoint{IP: p.Addr.IP, Port: p.Addr.Port + 1}
				if q, ok := n.resolve(sh, 0, bootstrapDst, wrong, msg, 0); ok || n.DropTotals()[trace.DropAddr] != before+1 {
					t.Errorf("%s: datagram to %v reached %v, want a DropAddr", w.name, wrong, q)
				}
			}
		})
		if _, ok := n.OwnerOfIP(ident.IP(pubIPBase + uint32(len(classes)))); ok {
			t.Errorf("%s: the IP past the last slot has an owner", w.name)
		}
		if _, ok := n.OwnerOfIP(pubIPBase - 1); ok {
			t.Errorf("%s: the IP below the first slot has an owner", w.name)
		}
	}
}
