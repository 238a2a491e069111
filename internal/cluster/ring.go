// Package cluster turns a set of independent salsad backends into one
// service: a stateless router (cmd/salsad -route) that places every
// allocation request on exactly one backend by rendezvous hashing of
// the graph's content address (cdfg.Fingerprint). One graph, one
// shard — so each graph's result-cache entry and singleflight collapse
// live in a single place instead of being duplicated across the fleet,
// and the fleet's effective cache is the sum of its parts rather than
// N copies of the hottest entries.
//
// Membership is health-driven: the router polls every backend's
// /readyz on an injectable clock (virtual-time testable), and a
// backend that stops answering is skipped in every key's placement
// order, re-homing its keys onto the survivors deterministically. The
// request path does not depend on probe freshness for correctness: a
// proxied exchange that fails with a transport error or a 5xx fails
// over to the next healthy backend in the key's placement order,
// through the retrying client (internal/client), so a backend dying
// between probes costs latency, never an answer. Async jobs are pinned
// to the shard that created them by an ID prefix; a shard that dies
// takes its in-memory job registry with it, and the router answers
// polls for those jobs so that the retrying client resubmits —
// allocation is idempotent by content address, so a resubmission can
// never duplicate effects.
package cluster

import (
	"cmp"
	"hash/fnv"
	"slices"
)

// Ring is an immutable rendezvous-hash placement over a set of backend
// names (Thaler & Ravishankar, IEEE/ACM ToN 1998): every member scores
// every key, and the key's placement order is the members by
// descending score. A member's score depends only on its own name and
// the key, so the key→shard map is a pure function of the member
// *set* — whatever order the members were listed or joined in — and
// dropping members leaves the others' relative order unchanged.
type Ring struct {
	members []string // sorted, distinct
	hashes  []uint64 // hash64 of each member
}

// NewRing builds the placement over members. Duplicate members are
// collapsed. An empty member set yields an empty ring (Owner reports
// false). replicas is ignored: it is kept so that existing callers
// still compile.
func NewRing(members []string, replicas int) *Ring {
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	r := &Ring{members: sorted, hashes: make([]uint64, len(sorted))}
	for i, m := range sorted {
		r.hashes[i] = hash64(m)
	}
	return r
}

// Len reports the number of distinct members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the backend that owns key: the member with the highest
// score, ties going to the lower name. ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	if len(r.members) == 0 {
		return "", false
	}
	k := hash64(key)
	best, bestScore := 0, score(r.hashes[0], k)
	for i := 1; i < len(r.hashes); i++ {
		if s := score(r.hashes[i], k); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.members[best], true
}

// Sequence returns the key's failover preference order: every member
// once, by descending score, ties going to the lower name. It starts
// at the owner, and it is a pure function of (key, member set): the
// property that makes failover deterministic and keeps a re-homed
// key's new owner equal to the old sequence's second choice.
func (r *Ring) Sequence(key string) []string {
	k := hash64(key)
	order := make([]int, len(r.members))
	scores := make([]uint64, len(r.members))
	for i, h := range r.hashes {
		order[i], scores[i] = i, score(h, k)
	}
	// Stable over the sorted members, so equal scores keep name order.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
	out := make([]string, len(order))
	for i, m := range order {
		out[i] = r.members[m]
	}
	return out
}

// score is a member's rendezvous score for a key: the splitmix64
// finalizer of the two names' hashes XORed. The finalizer spreads
// near-identical names, whose FNV-1a hashes differ in few bits.
func score(member, key uint64) uint64 {
	x := member ^ key
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hash64 is the placement's hash: FNV-1a, stable across processes and
// Go versions (the same fingerprint must route identically from every
// router instance).
func hash64(s string) uint64 {
	h := fnv.New64a()
	// Writes to an fnv hash cannot fail.
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
