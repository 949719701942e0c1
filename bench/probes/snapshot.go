package probes

import (
	"repro/internal/ident"
	"repro/internal/snapshot"
	"repro/internal/view"
)

// snapshotProbe times the snapshot Encoder on a payload shaped like peer
// state — per peer an identity, a 15-entry view and 64 routing rows — with
// no world behind it: the codec's own throughput, which bounds capture_s
// from below.
func snapshotProbe() ([]Metric, error) {
	const peers = 2_000
	d := view.Descriptor{ID: 7, Addr: ident.Endpoint{IP: 0x0a000007, Port: 9000}, Class: ident.RestrictedCone, Age: 3}
	size := 0
	encode := func() {
		var enc snapshot.Encoder
		enc.Section("eng!")
		for p := 0; p < peers; p++ {
			enc.U64(uint64(p))
			enc.Endpoint(d.Addr)
			enc.U32(15)
			for i := 0; i < 15; i++ {
				enc.Desc(d)
			}
			enc.U32(64)
			for i := 0; i < 64; i++ {
				enc.U64(uint64(i))
				enc.Desc(d)
				enc.I64(90_000)
			}
		}
		size = enc.Len()
	}
	nsPerCall := nsPerOp(1, encode)
	return []Metric{{Name: "snapshot.encode_mb_per_s", Unit: "MB/s", Value: float64(size) / 1e6 / (nsPerCall / 1e9)}}, nil
}
