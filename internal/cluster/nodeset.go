package cluster

// NodeSet is a bit vector over node IDs, 64 nodes per word. The cluster
// maintains one per allocation class (partially-free busy nodes, idle
// nodes) and a reservation book one per switch-off group, so an
// allocation probe intersects whole words instead of asking a predicate
// about every node. A set may be shorter than the cluster (sized to its
// highest member): words beyond its length read as empty.
type NodeSet []uint64

// NewNodeSet returns an empty set able to hold IDs in [0, n).
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

// NodeSetOf returns the set of the given IDs, sized to its highest
// member; negative IDs are skipped.
func NodeSetOf(ids []NodeID) NodeSet {
	max := NodeID(0)
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	s := NewNodeSet(int(max) + 1)
	for _, id := range ids {
		if id >= 0 {
			s.Add(id)
		}
	}
	return s
}

// Add inserts id, which must lie inside the set's capacity.
func (s NodeSet) Add(id NodeID) { s[id>>6] |= 1 << (uint(id) & 63) }

// Remove deletes id, which must lie inside the set's capacity.
func (s NodeSet) Remove(id NodeID) { s[id>>6] &^= 1 << (uint(id) & 63) }

// Has reports membership; IDs outside the set's capacity are not members.
func (s NodeSet) Has(id NodeID) bool {
	return id >= 0 && int(id>>6) < len(s) && s[id>>6]&(1<<(uint(id)&63)) != 0
}

// Or adds o's members to s, growing s to o's length if it is shorter,
// and returns the result.
func (s NodeSet) Or(o NodeSet) NodeSet {
	for len(s) < len(o) {
		s = append(s, 0)
	}
	for w, word := range o {
		s[w] |= word
	}
	return s
}

// Word returns the w-th 64-node word, zero beyond the set's length.
func (s NodeSet) Word(w int) uint64 {
	if w < len(s) {
		return s[w]
	}
	return 0
}

// Equal reports whether s and o hold the same members; their lengths
// may differ.
func (s NodeSet) Equal(o NodeSet) bool {
	if len(s) < len(o) {
		s, o = o, s
	}
	for w, word := range s {
		if word != o.Word(w) {
			return false
		}
	}
	return true
}
