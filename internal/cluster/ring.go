// Package cluster holds the pure placement math for a sharded multi-instance
// SOMA fleet: a consistent-hash ring with virtual nodes mapping shard keys
// (namespace + leaf path) onto member instances, and a membership tracker
// that folds ping successes/failures into an alive set and a deterministic
// ring epoch.
//
// The package is deliberately transport-free — mercury wiring (peer pings,
// handoff RPCs, scatter-gather) lives in internal/core. That keeps the
// placement properties (balance, minimal movement on join/leave) testable as
// plain math.
package cluster

import (
	"sort"
	"strconv"
)

// Member is one somad instance in the cluster. Addr is the canonical
// identity used for ring placement — it is the one piece of information
// every peer knows about every other peer before gossip converges (seed
// lists are address lists). ID is a human label for health panels and logs;
// it defaults to the address when not configured.
type Member struct {
	ID   string `conduit:"id"`
	Addr string `conduit:"addr"`
}

// DefaultVnodes is the virtual-node count per member. 160 points per member
// keeps the load spread across 4 instances within a few percent of even
// (see ring_test.go), while the ring stays small enough that a full rebuild
// on membership change is microseconds.
const DefaultVnodes = 160

type point struct {
	hash   uint64
	member int // index into members
}

// Ring is an immutable consistent-hash ring over a member set. Build a new
// Ring on every membership change — lookups are lock-free by construction.
type Ring struct {
	members []Member // sorted by Addr
	points  []point  // sorted by hash
	epoch   uint64
}

// NewRing builds a ring over members with vnodes virtual nodes per member
// (DefaultVnodes when vnodes <= 0). The member slice is copied and sorted by
// Addr so that two peers holding the same member set build byte-identical
// rings — and therefore identical epochs — regardless of discovery order.
func NewRing(members []Member, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Addr < ms[j].Addr })
	// Deduplicate by address: seed lists and gossip can both name a peer.
	dst := ms[:0]
	for _, m := range ms {
		if len(dst) > 0 && dst[len(dst)-1].Addr == m.Addr {
			continue
		}
		dst = append(dst, m)
	}
	ms = dst

	r := &Ring{members: ms, epoch: memberEpoch(ms)}
	r.points = make([]point, 0, len(ms)*vnodes)
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			h := mix(fnv64a(m.Addr + "#" + strconv.Itoa(v)))
			r.points = append(r.points, point{hash: h, member: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Members returns the ring's member set, sorted by address. The slice is
// shared — callers must not mutate it.
func (r *Ring) Members() []Member { return r.members }

// Len reports the number of members on the ring.
func (r *Ring) Len() int { return len(r.members) }

// Epoch is a deterministic fingerprint of the member address set: any two
// peers that agree on which instances are alive compute the same epoch, and
// any membership change produces a different one. Handoff frames are stamped
// with the sender's epoch and rejected when it differs from the receiver's —
// diverged views retry after gossip converges.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Owner maps a shard key to its owning member. ok is false only for an
// empty ring.
func (r *Ring) Owner(key string) (m Member, ok bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	h := mix(fnv64a(key))
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member], true
}

// Owns reports whether addr owns key on this ring. An empty ring owns
// nothing; a single-member ring owns everything.
func (r *Ring) Owns(addr, key string) bool {
	m, ok := r.Owner(key)
	return ok && m.Addr == addr
}

// ShardKey builds the placement key for one published leaf: the namespace
// plus the leaf's full path. Placement at leaf granularity (rather than
// whole namespaces) is what spreads a single hot namespace — e.g. the load
// harness publishing 100k hardware sensors — across every instance. A
// multi-leaf publish routes by its first leaf and is stored whole at that
// owner; reads scatter to all live members, so placement never affects
// query correctness.
func ShardKey(ns, leafPath string) string {
	return ns + "\x00" + leafPath
}

// memberEpoch fingerprints the sorted member address set. Guaranteed
// nonzero so zero can mean "no ring yet" on the wire.
func memberEpoch(sorted []Member) uint64 {
	h := uint64(offset64)
	for _, m := range sorted {
		for i := 0; i < len(m.Addr); i++ {
			h ^= uint64(m.Addr[i])
			h *= prime64
		}
		h ^= 0
		h *= prime64
	}
	h = mix(h)
	if h == 0 {
		h = 1
	}
	return h
}

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

func fnv64a(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix is a 64-bit finalizer (splitmix64) layered over FNV-1a. FNV alone
// clusters badly for short, similar strings (vnode labels differ only in a
// trailing integer); the finalizer spreads those over the full 64-bit space,
// which is what the ±15% balance property relies on.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
