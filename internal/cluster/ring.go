// Package cluster turns a set of independent salsad backends into one
// service: a stateless router (cmd/salsad -route) that places every
// allocation request on exactly one backend using a consistent-hash
// ring keyed by the graph's content address (cdfg.Fingerprint). One
// graph, one shard — so each graph's result-cache entry and
// singleflight collapse live in a single place instead of being
// duplicated across the fleet, and the fleet's effective cache is the
// sum of its parts rather than N copies of the hottest entries.
//
// Membership is health-driven: the router polls every backend's
// /readyz on an injectable clock (virtual-time testable), and a
// backend that stops answering is removed from the ring, re-homing its
// keys onto the survivors deterministically. The request path does not
// depend on probe freshness for correctness: a proxied exchange that
// fails with a transport error or a 5xx fails over to the next distinct
// backend in the key's ring order, through the retrying client
// (internal/client), so a backend dying between probes costs latency,
// never an answer. Async jobs are pinned to the shard that created
// them by an ID prefix; a shard that dies takes its in-memory job
// registry with it, and the router answers polls for those jobs so
// that the retrying client resubmits — allocation is idempotent by
// content address, so a resubmission can never duplicate effects.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the number of ring points per backend. The split
// it gives is far from even: FNV-1a spreads the near-identical point
// names "<name>#<i>" poorly. Of 200,000 random keys, the backends
// http://127.0.0.1:8081–8083 get 38%, 55% and 7%, and of the five
// backends b1–b5, b5 gets 75%.
const DefaultReplicas = 64

// ringPoint is one virtual node: a backend's hashed position.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a set of backend
// names. Construction is a pure function of the member *set*: the
// same members yield the same ring — and therefore the same key→shard
// map — whatever order they were listed or joined in. Rebuild on
// membership changes (rings are cheap; immutability is what makes the
// router's lookups lock-free once a snapshot is taken).
type Ring struct {
	points  []ringPoint
	members []string // sorted, distinct
}

// NewRing builds a ring over members with the given number of virtual
// nodes per member (0 selects DefaultReplicas). Duplicate members are
// collapsed. An empty member set yields an empty ring (Owner reports
// false).
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	r := &Ring{members: make([]string, 0, len(sorted))}
	for i, m := range sorted {
		if i > 0 && m == sorted[i-1] {
			continue
		}
		r.members = append(r.members, m)
	}
	r.points = make([]ringPoint, 0, len(r.members)*replicas)
	for _, m := range r.members {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	// Ties broken by member name so the ring order — and with it every
	// key→shard decision — is deterministic even if two virtual nodes
	// collide.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's distinct members in sorted order. The
// caller must not mutate the returned slice.
func (r *Ring) Members() []string { return r.members }

// Len reports the number of distinct members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the backend that owns key: the member of the first
// ring point at or clockwise after the key's hash. ok is false on an
// empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.at(key)].member, true
}

// Sequence returns the key's failover preference order: every distinct
// member, starting at the owner and walking the ring clockwise. The
// order is a pure function of (key, member set) — the property that
// makes failover deterministic and keeps a re-homed key's new owner
// equal to the old sequence's second choice.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i, start := 0, r.at(key); i < len(r.points) && len(out) < len(r.members); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// at locates the first point at or clockwise after key's hash.
func (r *Ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return i
}

// hash64 is the ring's hash: FNV-1a, stable across processes and Go
// versions (the same fingerprint must route identically from every
// router instance).
func hash64(s string) uint64 {
	h := fnv.New64a()
	// Writes to an fnv hash cannot fail.
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
