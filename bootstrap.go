package nylon

import (
	"time"

	"repro/internal/boot"
)

// JoinResult is the outcome of a bootstrap handshake: the peer's observed
// public mapping, its inferred NAT class, and an initial view of seed peers
// whose NAT holes the introducer pre-punched.
type JoinResult = boot.JoinResult

// Join runs the bootstrap handshake against an introducer: STUN-style
// binding probes discover the caller's public mapping and NAT class
// (RFC 3489 decision tree), then registration returns seed peers and
// coordinates the first hole punches. The results map directly onto
// Config.Advertise, Config.NAT and Config.Bootstrap:
//
//	tr, _ := nylon.ListenUDP(":0")
//	res, err := nylon.Join(tr, introducerAddr, 42, 2*time.Second)
//	node, _ := nylon.NewNode(nylon.Config{
//		ID: 42, Transport: tr,
//		Advertise: res.Mapped, NAT: res.Class, Bootstrap: res.Seeds,
//	})
func Join(tr Transport, introducer Endpoint, id NodeID, timeout time.Duration) (JoinResult, error) {
	return boot.Join(tr, introducer, id, timeout)
}

// Introducer is a bootstrap server: a public rendez-vous that classifies
// joiners' NATs, hands out seed peers, and coordinates join-time hole
// punching.
type Introducer = boot.Introducer

// IntroducerConfig configures an Introducer; see NewIntroducer.
type IntroducerConfig = boot.IntroducerConfig

// NewIntroducer starts a bootstrap server over the given sockets. Primary is
// required; AltPort (same IP, second port) and AltIP (second IP) enable full
// NAT classification — without them, cone classes degrade conservatively.
// MaxSeeds must lie in [0, 64] (0 means 8) and MemberTTL must not be
// negative.
func NewIntroducer(cfg IntroducerConfig) (*Introducer, error) { return boot.NewIntroducer(cfg) }
