// Package nat simulates the four NAT device behaviours described in Section
// 2.1 of the Nylon paper: full cone, restricted cone, port-restricted cone,
// and symmetric. A Device translates outbound packets from private endpoints
// to public mappings, installs filtering rules, and decides whether inbound
// packets are forwarded or dropped.
//
// Time is an explicit int64 millisecond parameter on every call so the same
// device works under the discrete-event simulator (virtual time) and under a
// real-time driver (milliseconds since start). Mappings and filtering rules
// expire ruleTTL milliseconds after the last packet sent or received on the
// session, matching the paper's "valid a limited time after the last message
// was sent (or received)".
//
// The memory layout is sized for simulations that keep one device per peer
// across hundreds of thousands of peers: sessions live inline in one slice
// (no per-session allocation), symmetric devices sweep expired sessions, and
// filter tables recycle the space of expired rules whenever they would
// otherwise grow — a device's footprint tracks its live sessions and rules,
// not the total number of remotes it ever saw.
package nat

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ident"
	"repro/internal/snapshot"
)

// Device models one NAT box with a single public IP. One or more private
// endpoints may sit behind it (the paper evaluates one peer per device, but
// the model is general).
//
// Device is not safe for concurrent use; callers in the simulator are
// single-threaded, and the real-time driver serializes access.
type Device struct {
	class    ident.NATClass
	publicIP ident.IP
	ruleTTL  int64 // milliseconds

	nextPort uint16
	// sessions is keyed per class:
	//   FC/RC/PRC: one session per private endpoint
	//   SYM:       one session per (private endpoint, destination endpoint)
	// A device fronts one peer, so the live list stays short (one session
	// for cone classes, one per destination for symmetric); linear scans
	// beat any map at that size, and the per-datagram path allocates
	// nothing. Sessions are stored by value and addressed by index; the
	// inbound lookup scans them for the public endpoint too.
	sessions []session
}

// portBase is the first public port a device hands out.
const portBase = 1024

// sweepSessions is the session count past which creating a new session first
// sweeps expired ones. Cone devices never reach it; symmetric devices — which
// allocate one session per destination and would otherwise accumulate dead
// sessions for every peer they ever contacted — stay bounded by their live
// destination set. Sweeping never frees a port for reuse (ports are handed
// out by a monotone counter), so behaviour is identical with or without it.
const sweepSessions = 16

type sessionKey struct {
	private ident.Endpoint
	dst     ident.Endpoint // zero except for symmetric NATs
}

type session struct {
	key    sessionKey
	public ident.Endpoint
	// filters holds the peers allowed to send inbound traffic, with the
	// virtual time at which each permission expires. The key granularity
	// depends on the NAT class: full IP:port for PRC/SYM, IP only (port 0)
	// for RC. Full-cone sessions use the wildcard zero endpoint.
	filters filterTable
	// lastUse is the most recent send or receive on the session; the
	// mapping itself dies ruleTTL after it.
	lastUse int64
	// pinned marks an explicit port mapping (NAT-PMP / UPnP): it never
	// expires and forwards all inbound traffic, like a full-cone rule.
	pinned bool
}

// filterTable is a small open-addressed hash from packed remote endpoints to
// rule expiry times. Refreshing a rule is the per-datagram hot operation of
// the whole NAT model, and a generic map's hashing dominated its profile; a
// flat table with inline values reduces it to one multiply and usually one
// probe. When an insert would grow the table, expired rules are dropped
// first and the table is sized for the survivors — so its footprint follows
// the live rule count instead of growing monotonically with every remote the
// session ever exchanged a datagram with. When the survivors fit the current
// size, they are compacted in place: only a size change allocates.
type filterTable struct {
	slots []filterSlot
	used  int
	// floor is the smallest table size rehash will produce. Sessions whose
	// class accumulates one rule per distinct remote (RC/PRC: the single
	// long-lived session of a cone device) start at the steady-state size
	// and skip the doubling chain; full-cone and symmetric sessions hold one
	// rule (the wildcard, or the session's destination) and start at the
	// smallest table that admits it.
	floor uint16
}

// minFilterSlots is the smallest filter table: room for the one rule of a
// full-cone or symmetric session under the 3/4 load bound.
const minFilterSlots = 4

// filterSlot is one cell: expire == 0 marks an empty slot (live rules
// always expire at a positive time).
type filterSlot struct {
	key    uint64
	expire int64
}

// packEP packs an endpoint into the table's key form.
func packEP(e ident.Endpoint) uint64 { return uint64(e.IP)<<16 | uint64(e.Port) }

func (f *filterTable) hashSlot(key uint64) int {
	h := (key | 1) * 0x9e3779b97f4a7c15
	return int(h & uint64(len(f.slots)-1))
}

// set installs or refreshes the rule for key. now is the current time, used
// to shed expired rules when the table would otherwise grow.
func (f *filterTable) set(key uint64, expire, now int64) {
	if 4*(f.used+1) > 3*len(f.slots) {
		f.rehash(now)
	}
	for j := f.hashSlot(key); ; j = (j + 1) & (len(f.slots) - 1) {
		s := &f.slots[j]
		if s.expire == 0 {
			*s = filterSlot{key: key, expire: expire}
			f.used++
			return
		}
		if s.key == key {
			s.expire = expire
			return
		}
	}
}

// refresh extends the rule for key to the new expiry iff the rule is live
// at now, and reports whether it was. One probe replaces the admit-time get
// and refresh-time set of the inbound hot path; the end state is identical
// (a live rule always takes set's update branch, and the rehash set might
// have triggered is housekeeping a later insert performs instead).
func (f *filterTable) refresh(key uint64, expire, now int64) bool {
	if len(f.slots) == 0 {
		return false
	}
	for j := f.hashSlot(key); ; j = (j + 1) & (len(f.slots) - 1) {
		s := &f.slots[j]
		if s.expire == 0 {
			return false
		}
		if s.key == key {
			if s.expire < now {
				return false
			}
			s.expire = expire
			return true
		}
	}
}

// get returns the expiry recorded for key, if any.
func (f *filterTable) get(key uint64) (int64, bool) {
	if len(f.slots) == 0 {
		return 0, false
	}
	for j := f.hashSlot(key); ; j = (j + 1) & (len(f.slots) - 1) {
		s := f.slots[j]
		if s.expire == 0 {
			return 0, false
		}
		if s.key == key {
			return s.expire, true
		}
	}
}

// rehash rebuilds the table sized for the rules still live at now, dropping
// expired ones. Dropping them is invisible: an expired rule already admits
// nothing.
func (f *filterTable) rehash(now int64) {
	live := 0
	for _, s := range f.slots {
		if s.expire != 0 && s.expire >= now {
			live++
		}
	}
	want := max(int(f.floor), minFilterSlots)
	for 4*(live+1) > 3*want {
		want *= 2
	}
	if want == len(f.slots) {
		f.dropExpired(now)
		return
	}
	old := f.slots
	f.slots = make([]filterSlot, want)
	f.used = 0
	for _, s := range old {
		if s.expire == 0 || s.expire < now {
			continue
		}
		for j := f.hashSlot(s.key); ; j = (j + 1) & (want - 1) {
			if f.slots[j].expire == 0 {
				f.slots[j] = s
				f.used++
				break
			}
		}
	}
}

// dropExpired deletes, in place, every rule that expired before now, by
// backward-shift deletion: each hole is refilled from the probe cluster after
// it, so no tombstone is left behind. Rules only move back along their
// cluster: one not yet examined lands on the cell being examined, which the
// scan examines again, or on another cell ahead of the scan; the only rules
// that land behind the scan come from a cluster's wrapped tail, which it has
// already kept. So one forward pass drops every expired rule.
func (f *filterTable) dropExpired(now int64) {
	mask := len(f.slots) - 1
	for i := 0; i <= mask; {
		if s := f.slots[i]; s.expire == 0 || s.expire >= now {
			i++
			continue
		}
		j := i
		for k := (j + 1) & mask; f.slots[k].expire != 0; k = (k + 1) & mask {
			// The rule at k may fill the hole iff its home lies at or before
			// the hole on the cyclic probe path ending at k.
			if (k-f.hashSlot(f.slots[k].key))&mask >= (k-j)&mask {
				f.slots[j] = f.slots[k]
				j = k
			}
		}
		f.slots[j] = filterSlot{}
		f.used--
	}
}

// compact drops rules that expired before now. The per-datagram path
// compacts opportunistically through set; Device.GC sweeps every session.
func (f *filterTable) compact(now int64) {
	if len(f.slots) == 0 {
		return
	}
	f.rehash(now)
}

// NewDevice creates a NAT device of the given class with the given public IP.
// ruleTTL is the lifetime, in milliseconds, of mappings and filtering rules
// after the last activity (the paper uses 90 s, a typical vendor value).
// NewDevice panics if class is Public or invalid: public peers have no NAT.
func NewDevice(class ident.NATClass, publicIP ident.IP, ruleTTL int64) *Device {
	d := new(Device)
	*d = MakeDevice(class, publicIP, ruleTTL)
	return d
}

// MakeDevice is NewDevice returning the device by value, for hosts that
// embed devices in slab storage instead of allocating each one (see
// simnet). The result must not be copied once any method has been called.
func MakeDevice(class ident.NATClass, publicIP ident.IP, ruleTTL int64) Device {
	if !class.Natted() || !class.Valid() {
		panic(fmt.Sprintf("nat: NewDevice called with class %v", class))
	}
	if ruleTTL <= 0 {
		panic("nat: NewDevice called with non-positive ruleTTL")
	}
	return Device{
		class:    class,
		publicIP: publicIP,
		ruleTTL:  ruleTTL,
		nextPort: 1024,
	}
}

// sessionByKey returns the index of the session for the given key, or -1.
func (d *Device) sessionByKey(key sessionKey) int {
	for i := range d.sessions {
		if d.sessions[i].key == key {
			return i
		}
	}
	return -1
}

// sessionByPublic returns the index of the session owning the given public
// endpoint, or -1.
func (d *Device) sessionByPublic(ep ident.Endpoint) int {
	for i := range d.sessions {
		if d.sessions[i].public == ep {
			return i
		}
	}
	return -1
}

// Class returns the NAT behaviour class of the device.
func (d *Device) Class() ident.NATClass { return d.class }

// PublicIP returns the public IP address shared by all mappings.
func (d *Device) PublicIP() ident.IP { return d.publicIP }

// wildcard marks a full-cone "accept anyone" filter entry.
var wildcard ident.Endpoint

func (d *Device) keyFor(private, dst ident.Endpoint) sessionKey {
	if d.class == ident.Symmetric {
		return sessionKey{private: private, dst: dst}
	}
	return sessionKey{private: private}
}

// filterKey reduces a remote endpoint to the granularity at which this
// device's class filters: IP-only for restricted cone, IP:port otherwise.
func (d *Device) filterKey(remote ident.Endpoint) ident.Endpoint {
	switch d.class {
	case ident.FullCone:
		return wildcard
	case ident.RestrictedCone:
		return ident.Endpoint{IP: remote.IP}
	default: // PRC, SYM
		return remote
	}
}

// filterFloor returns the initial filter-table size for this device's
// class: restricted and port-restricted cones keep one rule per distinct
// remote on a single session, so they start at the observed steady-state
// size; full-cone (one wildcard rule) and symmetric (one rule for the
// session's destination) sessions start at the minimum.
func (d *Device) filterFloor() uint16 {
	switch d.class {
	case ident.RestrictedCone, ident.PortRestrictedCone:
		return 64
	default:
		return minFilterSlots
	}
}

func (d *Device) expired(s *session, now int64) bool {
	return !s.pinned && now-s.lastUse > d.ruleTTL
}

// drop removes session i, swapping the last session into its place.
func (d *Device) drop(i int) {
	last := len(d.sessions) - 1
	d.sessions[i] = d.sessions[last]
	d.sessions[last] = session{}
	d.sessions = d.sessions[:last]
}

// sweep drops every expired session. Ports are never reused afterwards (the
// allocator is a monotone counter), so sweeping changes no observable
// behaviour — expired sessions admit nothing and resolve to nothing.
func (d *Device) sweep(now int64) {
	for i := 0; i < len(d.sessions); {
		if d.expired(&d.sessions[i], now) {
			d.drop(i)
			continue // drop swapped another session into i
		}
		i++
	}
}

func (d *Device) allocPort() uint16 {
	for {
		p := d.nextPort
		d.nextPort++
		if d.nextPort == 0 {
			d.nextPort = portBase
		}
		if p >= portBase && d.sessionByPublic(ident.Endpoint{IP: d.publicIP, Port: p}) < 0 {
			return p
		}
	}
}

// adopt appends a freshly built session and returns its index.
func (d *Device) adopt(s session) int {
	d.sessions = append(d.sessions, s)
	return len(d.sessions) - 1
}

// Outbound records a packet sent from the private endpoint src to the remote
// endpoint dst at the given time. It returns the public endpoint the packet
// appears to come from, creating or refreshing the mapping and the filtering
// rule that will admit return traffic.
func (d *Device) Outbound(now int64, src, dst ident.Endpoint) ident.Endpoint {
	key := d.keyFor(src, dst)
	i := d.sessionByKey(key)
	if i >= 0 && d.expired(&d.sessions[i], now) {
		d.drop(i)
		i = -1
	}
	if i < 0 {
		if len(d.sessions) >= sweepSessions {
			d.sweep(now)
		}
		i = d.adopt(session{
			key:     key,
			public:  ident.Endpoint{IP: d.publicIP, Port: d.allocPort()},
			filters: filterTable{floor: d.filterFloor()},
		})
	}
	s := &d.sessions[i]
	s.lastUse = now
	if !s.pinned { // a pinned session admits everyone: no rule to keep
		s.filters.set(packEP(d.filterKey(dst)), now+d.ruleTTL, now)
	}
	return s.public
}

// Inbound decides the fate of a packet arriving from the remote endpoint
// `from` addressed to the public endpoint `to`. If a live mapping and
// filtering rule admit it, Inbound returns the private destination endpoint
// and true, refreshing the session lifetime. Otherwise it returns the zero
// endpoint and false and the packet must be dropped.
func (d *Device) Inbound(now int64, from, to ident.Endpoint) (ident.Endpoint, bool) {
	i := d.sessionByPublic(to)
	if i < 0 {
		return ident.Zero, false
	}
	s := &d.sessions[i]
	if d.expired(s, now) {
		d.drop(i)
		return ident.Zero, false
	}
	// Inbound traffic on a live session refreshes it, per the paper: the
	// rule remains valid a limited time after the last message sent *or
	// received* in the session. For unpinned sessions the admit check and
	// the refresh touch the same class-reduced rule key, so one combined
	// probe decides and refreshes together (end state identical to the old
	// admits-then-set pair; the rehash set might have triggered on the way
	// is housekeeping a later insert performs instead).
	if s.pinned { // admits everyone (see admits): no rule to refresh
		s.lastUse = now
		return s.key.private, true
	}
	if !s.filters.refresh(packEP(d.filterKey(from)), now+d.ruleTTL, now) {
		return ident.Zero, false
	}
	s.lastUse = now
	return s.key.private, true
}

// Pinhole installs an explicit permanent port mapping for the private
// endpoint, as NAT-PMP or UPnP IGD would (the paper's related work discusses
// these as an alternative to traversal, with the caveat that not all devices
// support them). The returned public endpoint accepts unsolicited traffic
// from anyone and never expires. Symmetric semantics do not apply: the
// mapping is destination-independent by construction.
func (d *Device) Pinhole(priv ident.Endpoint) ident.Endpoint {
	key := sessionKey{private: priv}
	if i := d.sessionByKey(key); i >= 0 {
		if d.sessions[i].pinned {
			return d.sessions[i].public
		}
		// An expirable mapping for the same private endpoint exists;
		// the explicit port mapping supersedes it (two sessions must
		// never share a key, or lookups become ambiguous).
		d.drop(i)
	}
	s := session{
		key:    key,
		public: ident.Endpoint{IP: d.publicIP, Port: d.allocPort()},
		pinned: true,
	}
	s.filters.set(packEP(wildcard), 1<<62, 0)
	i := d.adopt(s)
	return d.sessions[i].public
}

func (d *Device) admits(s *session, now int64, from ident.Endpoint) bool {
	if s.pinned {
		return true
	}
	exp, ok := s.filters.get(packEP(d.filterKey(from)))
	return ok && exp >= now
}

// WouldAdmit reports, without mutating any state, whether a packet from the
// remote endpoint `from` addressed to the public endpoint `to` would be
// forwarded at the given time. Metrics code uses this to classify view
// entries as stale without perturbing the simulation.
func (d *Device) WouldAdmit(now int64, from, to ident.Endpoint) bool {
	i := d.sessionByPublic(to)
	if i < 0 {
		return false
	}
	s := &d.sessions[i]
	if d.expired(s, now) {
		return false
	}
	return d.admits(s, now, from)
}

// PublicMapping returns the current public endpoint that traffic from the
// private endpoint src toward dst would use, without creating one. The second
// result reports whether a live mapping exists. For non-symmetric devices dst
// is ignored beyond determining session liveness.
func (d *Device) PublicMapping(now int64, src, dst ident.Endpoint) (ident.Endpoint, bool) {
	i := d.sessionByKey(d.keyFor(src, dst))
	if i < 0 || d.expired(&d.sessions[i], now) {
		return ident.Zero, false
	}
	return d.sessions[i].public, true
}

// GC removes all sessions whose lifetime has elapsed. The simulator never
// calls it: filter tables compact on growth and symmetric devices sweep their
// sessions as they go (DESIGN.md §7.4); the benchmark's NAT probe prices it.
// Correctness never depends on it because every lookup re-checks expiry.
func (d *Device) GC(now int64) {
	d.sweep(now)
	for i := range d.sessions {
		d.sessions[i].filters.compact(now)
	}
}

// State walks the device's complete translation state — the port allocator,
// every session in slice order, and every session's filter rules — so a
// restored device is behaviourally identical to the original from the
// snapshot time onward. Expired sessions and rules are included verbatim; they
// admit nothing either way, but keeping them makes the capture exact rather
// than "equivalent".
//
// A capture walks the rules sorted by packed key: the filter table is a hash
// whose slot order depends on insertion history, and the snapshot encoding
// must not leak it (same state, same bytes). Restoring fills the zero Device,
// in place for slab embedding (see MakeDevice). Sessions are re-adopted in the
// serialized order, so every session keeps its index; filter tables are
// rebuilt by inserting the rules, which may land them in a different slot
// permutation or growth stage than the original's insertion history produced
// — unobservable, since lookups are key-addressed and rehash timing is
// housekeeping. On corrupt input the codec's sticky error is set; callers
// check it before using the device.
func (d *Device) State(c *snapshot.Codec) {
	d.class = ident.NATClass(c.U8(uint8(d.class)))
	d.publicIP = ident.IP(c.U32(uint32(d.publicIP)))
	d.ruleTTL = c.I64(d.ruleTTL)
	d.nextPort = c.U16(d.nextPort)
	if c.Restoring() && c.Err() == nil && (!d.class.Natted() || !d.class.Valid() || d.ruleTTL <= 0) {
		c.Fail("nat device with class %d, ruleTTL %d", d.class, d.ruleTTL)
	}
	nSess := c.Count(len(d.sessions), 6*3+8+1+4)
	for i := 0; i < nSess && c.Err() == nil; i++ {
		var fresh session // restoring, the session decodes into it and is adopted
		var rules []filterSlot
		s := &fresh
		if !c.Restoring() {
			s = &d.sessions[i]
			rules = make([]filterSlot, 0, s.filters.used)
			for _, sl := range s.filters.slots {
				if sl.expire != 0 {
					rules = append(rules, sl)
				}
			}
			slices.SortFunc(rules, func(a, b filterSlot) int { return cmp.Compare(a.key, b.key) })
		}
		s.key.private = c.Endpoint(s.key.private)
		s.key.dst = c.Endpoint(s.key.dst)
		s.public = c.Endpoint(s.public)
		s.lastUse = c.I64(s.lastUse)
		s.pinned = c.Bool(s.pinned)
		if c.Restoring() && !s.pinned { // a pinned session keeps Pinhole's minimum table
			s.filters.floor = d.filterFloor()
		}
		nRules := c.Count(len(rules), 8+8)
		if c.Restoring() && c.Err() == nil && (s.public.IP != d.publicIP || s.public.Port < portBase) {
			c.Fail("nat session with public endpoint %v outside device %v", s.public, d.publicIP)
		}
		for j := 0; j < nRules && c.Err() == nil; j++ {
			var r filterSlot
			if !c.Restoring() {
				r = rules[j]
			}
			r.key = c.U64(r.key)
			r.expire = c.I64(r.expire)
			if c.Restoring() && r.expire == 0 {
				c.Fail("nat filter rule with zero expiry")
			} else if c.Restoring() {
				s.filters.set(r.key, r.expire, 0)
			}
		}
		if c.Restoring() && c.Err() == nil {
			d.adopt(*s)
		}
	}
}
