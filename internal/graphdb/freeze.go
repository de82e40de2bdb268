package graphdb

import "sync"

// Frozen is the compressed-sparse-row (CSR) view of a Graph produced by
// Freeze. Edge labels are interned into int32 ids, out-adjacency is
// stored as contiguous edge arrays with per-node offsets, and label
// lists are captured as ID-sorted NodeID slices. A Frozen view is
// immutable and safe for concurrent readers.
//
// Freeze is a snapshot: mutations applied to the builder Graph after
// Freeze are not reflected in the frozen view. Per-node edge runs keep
// the builder's insertion order, so OutInto, ReachableVisit and Path
// visit edges in the order they were added.
type Frozen struct {
	nodes []Node // shares the builder's backing array; index = NodeID-1

	edgeLabelID map[string]int32 // edge label -> interned id, first-seen order

	// CSR adjacency: the out-edges of node id are
	// outTo[outOff[id-1]:outOff[id]] with labels in the parallel
	// outLab run.
	outOff []int32
	outTo  []NodeID
	outLab []int32

	byLabel map[string][]NodeID // snapshot of the builder's label lists
}

// Freeze compiles the graph into its CSR form. The builder stays
// usable for further construction, but those mutations are invisible
// to the returned view; freeze once, after the build completes.
//
// When the graph has been Reset since its previous Freeze, the arrays
// of that earlier (now invalidated) view are reused, so a worker
// rebuilding and refreezing graphs of similar shape reaches a
// steady state with no per-freeze allocation.
func (g *Graph) Freeze() *Frozen {
	n := len(g.nodes)
	f := g.spare
	g.spare = nil
	if f == nil {
		f = &Frozen{
			edgeLabelID: make(map[string]int32, 8),
			byLabel:     make(map[string][]NodeID, len(g.byLabel)),
		}
	} else {
		clear(f.edgeLabelID)
		clear(f.byLabel)
		f.outTo, f.outLab = f.outTo[:0], f.outLab[:0]
	}
	f.nodes = g.nodes[:n:n]
	if cap(f.outOff) < n+1 {
		f.outOff = make([]int32, n+1)
	}
	f.outOff = f.outOff[:n+1]
	if cap(f.outTo) < g.edgeCount {
		f.outTo = make([]NodeID, 0, g.edgeCount)
		f.outLab = make([]int32, 0, g.edgeCount)
	}
	f.outOff[0] = 0
	for i := 0; i < n; i++ {
		for _, e := range g.out[i] {
			id, ok := f.edgeLabelID[e.label]
			if !ok {
				id = int32(len(f.edgeLabelID))
				f.edgeLabelID[e.label] = id
			}
			f.outTo = append(f.outTo, e.to)
			f.outLab = append(f.outLab, id)
		}
		f.outOff[i+1] = int32(len(f.outTo))
	}
	// Label lists are append-only in the builder, so capturing the
	// slice headers (length-capped) is a stable snapshot even if the
	// builder keeps growing. Empty lists (labels left behind by Reset)
	// are skipped: a missing map entry answers lookups identically.
	for label, ids := range g.byLabel {
		if len(ids) > 0 {
			f.byLabel[label] = ids[:len(ids):len(ids)]
		}
	}
	g.last = f
	return f
}

// has reports whether id names a node of the view.
func (f *Frozen) has(id NodeID) bool {
	return id >= 1 && int64(id) <= int64(len(f.nodes))
}

// Node returns a node by id (nil when absent).
func (f *Frozen) Node(id NodeID) *Node {
	if !f.has(id) {
		return nil
	}
	return &f.nodes[id-1]
}

// NodesByLabel returns node ids with the given label, in insertion
// (= ascending ID) order. The slice is fresh.
func (f *Frozen) NodesByLabel(label string) []NodeID {
	return append([]NodeID(nil), f.byLabel[label]...)
}

// OutInto appends the targets of id's out-edges labelled label
// ("" = any) to dst in insertion order and returns it, allocating only
// when dst lacks capacity.
func (f *Frozen) OutInto(dst []NodeID, id NodeID, label string) []NodeID {
	if !f.has(id) {
		return dst
	}
	lo, hi := f.outOff[id-1], f.outOff[id]
	if label == "" {
		return append(dst, f.outTo[lo:hi]...)
	}
	want, ok := f.edgeLabelID[label]
	if !ok {
		return dst
	}
	for i := lo; i < hi; i++ {
		if f.outLab[i] == want {
			dst = append(dst, f.outTo[i])
		}
	}
	return dst
}

// OutDegree returns the number of out-edges of id (all labels).
func (f *Frozen) OutDegree(id NodeID) int {
	if !f.has(id) {
		return 0
	}
	return int(f.outOff[id] - f.outOff[id-1])
}

// labelFilter is a traversal's edge-label filter over interned ids:
// wanted ids below 64 live in a bitmask, the rest in a set. APGs have
// far fewer than 64 edge labels, so the set only keeps the contract
// total.
type labelFilter struct {
	mask uint64
	all  bool // nil filter: follow every edge (mask is all ones too)
	set  map[int32]bool
}

// filterFor resolves a label filter (nil = all labels). A label
// unknown to the graph matches no edge.
func (f *Frozen) filterFor(labels []string) labelFilter {
	if labels == nil {
		return labelFilter{mask: ^uint64(0), all: true}
	}
	var lf labelFilter
	for _, l := range labels {
		id, ok := f.edgeLabelID[l]
		switch {
		case !ok:
		case id < 64:
			lf.mask |= uint64(1) << uint(id)
		default:
			if lf.set == nil {
				lf.set = make(map[int32]bool)
			}
			lf.set[id] = true
		}
	}
	return lf
}

// follows reports whether the filter admits edge label id lab. A shift
// by 64 or more yields 0, so ids ≥ 64 fall through to the set.
func (lf *labelFilter) follows(lab int32) bool {
	return lf.mask&(uint64(1)<<uint(lab)) != 0 || lf.all || (lf.set != nil && lf.set[lab])
}

// scratch holds reusable BFS state. marks is an epoch-stamped visited
// array: marks[i] == epoch means node i+1 was visited in the current
// traversal, so resets are O(1) (bump the epoch) instead of O(n).
type scratch struct {
	marks []uint32
	epoch uint32
	queue []NodeID
	prev  []int32 // predecessor node index +1, for path reconstruction
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin prepares the scratch for a traversal over n nodes.
func (s *scratch) begin(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint32, n)
		s.prev = make([]int32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: clear stale stamps once
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

// VisitSet is the result of a frozen reachability traversal: an
// epoch-stamped membership structure plus the visit order. It is
// immutable after ReachableVisit returns and safe for concurrent
// readers.
type VisitSet struct {
	marks []uint32
	epoch uint32
	// Order lists the visited nodes in BFS order (seeds first).
	Order []NodeID
}

// Has reports whether id was visited.
func (v *VisitSet) Has(id NodeID) bool {
	return id >= 1 && int64(id) <= int64(len(v.marks)) && v.marks[id-1] == v.epoch
}

// Len returns the number of visited nodes.
func (v *VisitSet) Len() int { return len(v.Order) }

// ReachableVisit computes the forward closure from the seed set
// following edges whose label is in labels (nil = all labels). Unknown
// seeds are ignored. The result owns its storage (it is retained, e.g.
// memoized per-APG), so this allocates O(nodes) once rather than using
// pooled scratch.
func (f *Frozen) ReachableVisit(seeds []NodeID, labels []string) *VisitSet {
	v := &VisitSet{marks: make([]uint32, len(f.nodes)), epoch: 1}
	lf := f.filterFor(labels)
	for _, s := range seeds {
		if f.has(s) && v.marks[s-1] != v.epoch {
			v.marks[s-1] = v.epoch
			v.Order = append(v.Order, s)
		}
	}
	for head := 0; head < len(v.Order); head++ {
		cur := v.Order[head]
		for i := f.outOff[cur-1]; i < f.outOff[cur]; i++ {
			if !lf.follows(f.outLab[i]) {
				continue
			}
			to := f.outTo[i]
			if v.marks[to-1] != v.epoch {
				v.marks[to-1] = v.epoch
				v.Order = append(v.Order, to)
			}
		}
	}
	return v
}

// Path returns one shortest path from from to to following edges whose
// label is in labels (nil = all), or nil when unreachable. Among
// shortest paths it returns the one breadth-first search finds
// visiting edges in insertion order. BFS state comes from an internal
// pool, so steady-state calls allocate only the returned path.
func (f *Frozen) Path(from, to NodeID, labels []string) []NodeID {
	if !f.has(from) || !f.has(to) {
		return nil
	}
	lf := f.filterFor(labels)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.begin(len(f.nodes))
	s.marks[from-1] = s.epoch
	s.prev[from-1] = int32(from)
	s.queue = append(s.queue, from)
	found := from == to
	for head := 0; head < len(s.queue) && !found; head++ {
		cur := s.queue[head]
		for i := f.outOff[cur-1]; i < f.outOff[cur]; i++ {
			if !lf.follows(f.outLab[i]) {
				continue
			}
			next := f.outTo[i]
			if s.marks[next-1] == s.epoch {
				continue
			}
			s.marks[next-1] = s.epoch
			s.prev[next-1] = int32(cur)
			if next == to {
				found = true
				break
			}
			s.queue = append(s.queue, next)
		}
	}
	if !found {
		return nil
	}
	var path []NodeID
	for cur := to; ; cur = NodeID(s.prev[cur-1]) {
		path = append(path, cur)
		if cur == from {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
