package boot

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/view"
)

// IntroducerConfig configures an introducer service.
type IntroducerConfig struct {
	// Primary is the socket joiners contact. Required.
	Primary transport.Transport
	// AltPort is an optional socket on the same IP, different port, used
	// for the RC/PRC filtering probe.
	AltPort transport.Transport
	// AltIP is an optional socket on a different IP, used for the FC/RC
	// filtering probe and symmetric-mapping detection.
	AltIP transport.Transport
	// MaxSeeds is the number of seeds handed to each joiner (default 8, at
	// most the package's MaxSeeds, which one JoinResp can carry).
	MaxSeeds int
	// MemberTTL is how long a registered member stays eligible as a seed
	// (default 90 s — the NAT hole lifetime, since the hole between the
	// member and the introducer is what keeps PunchRequests deliverable).
	// It must not be negative.
	MemberTTL time.Duration
}

// Introducer is the bootstrap server: a public rendez-vous that classifies
// joiners' NATs, registers them, and introduces them to seed peers with
// coordinated hole punching. Create with NewIntroducer, stop with Close.
type Introducer struct {
	cfg IntroducerConfig

	mu      sync.Mutex
	members map[ident.NodeID]*member
	order   []ident.NodeID // registration order, oldest first

	done chan struct{}
	wg   sync.WaitGroup
}

type member struct {
	desc     view.Descriptor
	observed ident.Endpoint
	lastSeen time.Time
}

// NewIntroducer starts the service's receive loops. It refuses a config
// whose joiners could not all be answered.
func NewIntroducer(cfg IntroducerConfig) (*Introducer, error) {
	if cfg.Primary == nil {
		return nil, errors.New("boot: IntroducerConfig.Primary is required")
	}
	if cfg.MaxSeeds < 0 || cfg.MaxSeeds > MaxSeeds {
		return nil, fmt.Errorf("boot: IntroducerConfig.MaxSeeds %d outside [0, %d]", cfg.MaxSeeds, MaxSeeds)
	}
	if cfg.MemberTTL < 0 {
		return nil, fmt.Errorf("boot: IntroducerConfig.MemberTTL %v must not be negative", cfg.MemberTTL)
	}
	if cfg.MaxSeeds == 0 {
		cfg.MaxSeeds = 8
	}
	if cfg.MemberTTL == 0 {
		cfg.MemberTTL = 90 * time.Second
	}
	in := &Introducer{
		cfg:     cfg,
		members: make(map[ident.NodeID]*member),
		done:    make(chan struct{}),
	}
	for _, tr := range []transport.Transport{cfg.Primary, cfg.AltPort, cfg.AltIP} {
		if tr != nil {
			in.wg.Add(1)
			go in.serve(tr)
		}
	}
	return in, nil
}

// Members returns the number of currently registered members.
func (in *Introducer) Members() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.members)
}

func (in *Introducer) serve(tr transport.Transport) {
	defer in.wg.Done()
	for {
		select {
		case <-in.done:
			return
		case pkt, ok := <-tr.Packets():
			if !ok {
				return
			}
			msg, err := Unmarshal(pkt.Data)
			if err != nil {
				continue
			}
			in.handle(tr, pkt.From, msg)
		}
	}
}

func (in *Introducer) send(tr transport.Transport, to ident.Endpoint, m *Message) {
	data, err := m.Marshal()
	if err != nil {
		return
	}
	_ = tr.Send(to, data)
}

func (in *Introducer) altEndpoints() (altPort, altIP ident.Endpoint) {
	if in.cfg.AltPort != nil {
		altPort = in.cfg.AltPort.LocalAddr()
	}
	if in.cfg.AltIP != nil {
		altIP = in.cfg.AltIP.LocalAddr()
	}
	return altPort, altIP
}

func (in *Introducer) handle(tr transport.Transport, from ident.Endpoint, msg *Message) {
	switch msg.Kind {
	case KindBindingReq:
		altPort, altIP := in.altEndpoints()
		resp := &Message{
			Kind: KindBindingResp, Seq: msg.Seq,
			Mapped: from, AltPort: altPort, AltIP: altIP,
		}
		switch msg.Via {
		case ViaAltPort:
			if in.cfg.AltPort != nil {
				in.send(in.cfg.AltPort, from, resp)
			}
		case ViaAltIP:
			if in.cfg.AltIP != nil {
				in.send(in.cfg.AltIP, from, resp)
			}
		default:
			// Reply from the socket that received the request, so
			// mapping probes against the alternate sockets work.
			in.send(tr, from, resp)
		}
	case KindJoinReq:
		seeds := in.register(msg.Self, from)
		in.send(tr, from, &Message{Kind: KindJoinResp, Seq: msg.Seq, Seeds: seeds})
		// Ask each seed to open a hole toward the joiner. The punch
		// travels through the hole the seed's own join (or keepalive)
		// left open toward the introducer.
		joiner := msg.Self
		in.mu.Lock()
		for _, s := range seeds {
			if mem, ok := in.members[s.ID]; ok {
				in.send(in.cfg.Primary, mem.observed, &Message{Kind: KindPunch, Self: joiner})
			}
		}
		in.mu.Unlock()
	case KindPunch:
		// Joiner-side punches never target the introducer; ignore.
	}
}

// register adds or refreshes the member and returns up to MaxSeeds other
// live members, most recent first.
func (in *Introducer) register(d view.Descriptor, observed ident.Endpoint) []view.Descriptor {
	now := time.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, known := in.members[d.ID]; !known {
		in.order = append(in.order, d.ID)
	}
	in.members[d.ID] = &member{desc: d, observed: observed, lastSeen: now}

	var seeds []view.Descriptor
	for i := len(in.order) - 1; i >= 0 && len(seeds) < in.cfg.MaxSeeds; i-- {
		id := in.order[i]
		mem, ok := in.members[id]
		if !ok || id == d.ID {
			continue
		}
		if now.Sub(mem.lastSeen) > in.cfg.MemberTTL {
			delete(in.members, id)
			continue
		}
		seeds = append(seeds, mem.desc)
	}
	return seeds
}

// Close stops the service. It does not close the transports (the caller owns
// them).
func (in *Introducer) Close() {
	select {
	case <-in.done:
	default:
		close(in.done)
	}
	in.wg.Wait()
}
