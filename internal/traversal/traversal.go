// Package traversal encodes the NAT traversal decision table of Section 2.2
// of the Nylon paper: given the NAT classes of a source and a destination
// peer, it decides whether the source can contact the destination directly,
// must apply (possibly modified) hole punching through a rendez-vous peer, or
// must fall back to relaying every message through the rendez-vous peer.
package traversal

import (
	"strconv"

	"repro/internal/ident"
)

// Method is the technique a source peer must use to open a message exchange
// with a destination peer.
type Method uint8

const (
	// Direct means the destination accepts unsolicited traffic; no
	// rendez-vous peer is needed.
	Direct Method = iota
	// HolePunch means the standard hole punching handshake (PING +
	// OPEN_HOLE via RVP + PONG) establishes direct connectivity.
	HolePunch
	// HolePunchModified is hole punching where the PONG must travel back
	// through the RVP because the destination does not know the source's
	// per-destination symmetric mapping (paper §2.2, footnote 2).
	HolePunchModified
	// Relay means no hole can be punched; every message of the exchange is
	// forwarded by the rendez-vous peer.
	Relay
)

var methodNames = [...]string{
	Direct:            "direct",
	HolePunch:         "hole-punching",
	HolePunchModified: "modified-hole-punching",
	Relay:             "relaying",
}

// String implements fmt.Stringer.
func (m Method) String() string {
	if int(m) < len(methodNames) {
		return methodNames[m]
	}
	return "method(" + strconv.Itoa(int(m)) + ")"
}

// Decide returns the traversal method a peer of class src must use to start
// an exchange with a peer of class dst, per the table in Section 2.2:
//
//	        public  RC             PRC            SYM
//	public  direct  hole punching  hole punching  relay
//	RC      direct  hole punching  hole punching  hole punching
//	PRC     direct  hole punching  hole punching  relaying
//	SYM     direct  mod. hole p.   relaying       relaying
//
// Full-cone destinations behave like public peers as long as their mapping is
// alive (paper §2.2), so they map to Direct; full-cone sources behave like
// public sources. The caller remains responsible for checking that a
// full-cone destination actually has a live mapping.
func Decide(src, dst ident.NATClass) Method {
	// Normalize full cone to public on both sides: a live FC mapping
	// forwards everything, and an FC source has a stable, unrestricted
	// return path just like a public one.
	if src == ident.FullCone {
		src = ident.Public
	}
	if dst == ident.FullCone {
		dst = ident.Public
	}
	switch dst {
	case ident.Public:
		return Direct
	case ident.RestrictedCone:
		if src == ident.Symmetric {
			// The destination filters by IP only, but it cannot learn
			// the source's fresh symmetric mapping from the source, so
			// the PONG travels back through the RVP.
			return HolePunchModified
		}
		return HolePunch
	case ident.PortRestrictedCone:
		if src == ident.Symmetric {
			// The destination's PONG would target a stale port: the
			// symmetric source allocates a new mapping per destination.
			return Relay
		}
		return HolePunch
	case ident.Symmetric:
		if src == ident.RestrictedCone {
			// An RC source filters inbound by IP only, so the PONG
			// from the symmetric destination's fresh mapping still
			// gets through.
			return HolePunch
		}
		// public→SYM, PRC→SYM and SYM→SYM go through the relay: the
		// symmetric destination's per-session port is unknown to the
		// source (and vice versa for SYM→SYM).
		return Relay
	default:
		// Unknown classes get the most conservative treatment.
		return Relay
	}
}
