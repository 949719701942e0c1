package wire

// Pool is the message free list: it recycles messages together with their
// Entries backing arrays, because at simulation scale (millions of datagrams
// per run) per-message allocation would dominate the heap profile. The
// sharded simulation gives each shard its own Pool so that the per-datagram
// allocate/release cycle never crosses cores: a shard's engines draw from the
// shard's pool, and the network returns every message consumed on that shard
// to the same pool, whichever shard sent it.
//
// A Pool is single-owner: only its owning shard's events (or barrier code)
// may use it; it does no locking. A nil *Pool is valid and keeps nothing: Get
// allocates a fresh message and Put leaves the message to the garbage
// collector.
type Pool struct {
	free    []*Message
	balance int64
}

// Get returns an empty message, reusing a pooled one (and its Entries
// capacity) when available.
func (p *Pool) Get() *Message {
	if p == nil {
		return new(Message)
	}
	p.balance++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	return new(Message)
}

// Put resets the message and returns it to the pool. The caller must be the
// sole owner: no engine or queue may still reference the message or its
// Entries slice. Only a host that owns a message's whole lifecycle puts it;
// double-putting is a bug.
func (p *Pool) Put(m *Message) {
	if p == nil {
		return
	}
	p.balance--
	entries := m.Entries[:0]
	*m = Message{Entries: entries}
	p.free = append(p.free, m)
}

// Balance reports Gets minus Puts since creation: the number of messages
// currently checked out of the pool. A host that fully owns every message
// lifecycle can assert it returns to zero — a positive balance means leaked
// messages, a negative one means a borrowed (non-pool) message was returned.
// Zero for the nil pool, which keeps no books.
func (p *Pool) Balance() int64 {
	if p == nil {
		return 0
	}
	return p.balance
}

// Clone returns a deep copy of m drawn from the pool. Forwarding code uses it
// so the mutation of Hops never aliases a message still queued elsewhere. The
// copy keeps the drawn message's Entries backing array even when m has no
// entries (relays clone OPEN_HOLE/PING constantly): dropping it would
// progressively strip recycled capacity from the pool. A zero-length slice
// encodes identically to nil.
func (p *Pool) Clone(m *Message) *Message {
	c := p.Get()
	entries := c.Entries
	*c = *m
	c.Entries = append(entries[:0], m.Entries...)
	return c
}
