package probes

import (
	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// shuffleMessage is a REQUEST as a peer with a 15-entry view ships it: the
// sender itself plus half its view.
func shuffleMessage(kind wire.Kind, src, dst view.Descriptor) *wire.Message {
	msg := &wire.Message{Kind: kind, Src: src, Dst: dst, Via: src}
	msg.Entries = append(msg.Entries, wire.ViewEntry{Desc: src})
	for i := 0; i < 7; i++ {
		msg.Entries = append(msg.Entries, wire.ViewEntry{
			Desc:     view.Descriptor{ID: ident.NodeID(500 + i), Addr: ident.Endpoint{IP: ident.IP(0x0a000100 + uint32(i)), Port: 9000}, Class: ident.PortRestrictedCone, Age: uint32(i)},
			RouteTTL: 60_000,
		})
	}
	return msg
}

// wireProbe times the codec on an 8-entry message. Only the live runtime
// encodes: the simulator passes messages by pointer.
func wireProbe() ([]Metric, error) {
	src := view.Descriptor{ID: 1, Addr: ident.Endpoint{IP: 0x0a000001, Port: 9000}, Class: ident.Public}
	dst := view.Descriptor{ID: 2, Addr: ident.Endpoint{IP: 0x0a000002, Port: 9000}, Class: ident.RestrictedCone}
	msg := shuffleMessage(wire.KindRequest, src, dst)
	data, err := msg.Marshal()
	if err != nil {
		return nil, err
	}
	size := 0
	marshal := nsPerOp(1, func() {
		b, _ := msg.Marshal() // the message was marshalled above; it cannot fail now
		size += len(b)
	})
	entries := 0
	unmarshal := func() {
		m, err := wire.Unmarshal(data)
		if err != nil {
			panic(err) // bytes this probe just encoded
		}
		entries += len(m.Entries)
	}
	unmarshalNs := nsPerOp(1, unmarshal)
	if size == 0 || entries == 0 {
		panic("unreachable")
	}
	return []Metric{
		ns("wire.marshal_ns", marshal),
		ns("wire.unmarshal_ns", unmarshalNs),
		count("wire.unmarshal_allocs", allocsPerOp(1000, unmarshal)),
	}, nil
}
