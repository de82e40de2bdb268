// Package graphdb is a small in-memory property graph. The paper keeps
// the Android Property Graph in a graph database and phrases its
// analyses as graph queries; the analyses here need only two of those
// query shapes — forward closure and shortest path over a set of edge
// labels — plus label scans and filtered adjacency, so the package
// offers exactly that rather than a general query language.
//
// The package has two layers. *Graph is the build API: labelled nodes
// with string properties under dense sequential NodeIDs, and labelled
// out-edge runs, cheap to append to. Freeze compiles a Graph into a
// *Frozen compressed-sparse-row view (see freeze.go) that answers the
// read API — node lookup, label scans, filtered out-adjacency,
// closure and path — from contiguous arrays; the analysis passes build
// mutably and read frozen.
package graphdb

import "fmt"

// NodeID identifies a node. IDs are dense and sequential starting at 1,
// in insertion order.
type NodeID int64

// Props stores node properties as flattened key/value pairs:
// [k0, v0, k1, v1, ...]. Nodes have few properties (≤5 in every APG
// node shape), so linear scan beats a map and the whole set is one
// allocation.
type Props []string

// Get returns the value for key ("" when absent).
func (p Props) Get(key string) string {
	for i := 0; i+1 < len(p); i += 2 {
		if p[i] == key {
			return p[i+1]
		}
	}
	return ""
}

// Node is a labelled node with properties.
type Node struct {
	ID    NodeID
	Label string
	Props Props
}

// Prop returns a property value ("" when absent).
func (n *Node) Prop(key string) string { return n.Props.Get(key) }

// edge is one entry of a node's out-edge run.
type edge struct {
	to    NodeID
	label string
}

// Graph is the mutable build-time graph. It is not safe for concurrent
// use; Freeze it and read the Frozen view.
type Graph struct {
	// nodes[i] is the node with ID i+1, stored by value; IDs are dense
	// so every iteration is ID-ordered by construction, and there is no
	// per-node heap object — Node pointers handed out point into this
	// backing array.
	nodes     []Node
	out       [][]edge
	byLabel   map[string][]NodeID
	edgeCount int

	// propCur/propFull/propSpare form a chunked arena holding node
	// property storage: addNode copies incoming key/value pairs into the
	// current block and each Node.Props aliases its span. Blocks are
	// fixed-capacity and never reallocate, so earlier views stay valid;
	// Reset clears and recycles them.
	propCur   []string
	propFull  [][]string
	propSpare [][]string

	// last is the most recent Frozen view; Reset reclaims its arrays
	// into spare so the next Freeze builds without reallocating.
	last, spare *Frozen
}

// propBlockSize is the string capacity of one property-arena block.
const propBlockSize = 512

// New creates an empty graph.
func New() *Graph {
	return &Graph{byLabel: map[string][]NodeID{}}
}

// has reports whether id names a node of the graph.
func (g *Graph) has(id NodeID) bool {
	return id >= 1 && int64(id) <= int64(len(g.nodes))
}

// Reset clears the graph for rebuilding while keeping every allocated
// buffer: node storage, per-node edge runs, label lists, and the
// arrays of the last Frozen view (which the next Freeze reuses). What
// it retains is bounded by the largest graph built so far plus one
// label-list entry per distinct node label, so Reset and the next
// Freeze cost O(the next graph) however many graphs came before.
// Reset invalidates everything previously obtained from this graph —
// *Node pointers, Frozen views, and slices they returned — so it is
// only for arena-style reuse where the previous analysis is completely
// finished, e.g. one worker re-analysing app after app.
func (g *Graph) Reset() {
	clear(g.nodes) // release retained label/property strings
	g.nodes = g.nodes[:0]
	// Truncating the outer slice keeps the per-node edge runs in the
	// backing array; addNode reclaims their capacity one node at a time.
	g.out = g.out[:0]
	for label, ids := range g.byLabel {
		g.byLabel[label] = ids[:0]
	}
	g.edgeCount = 0
	for _, b := range g.propFull {
		clear(b) // release retained property strings
		g.propSpare = append(g.propSpare, b[:0])
	}
	g.propFull = g.propFull[:0]
	clear(g.propCur)
	g.propCur = g.propCur[:0]
	if g.last != nil {
		g.spare, g.last = g.last, nil
	}
}

// AddNodeKV inserts a node whose properties are given as alternating
// key/value pairs and returns its id. The pairs are copied into
// graph-owned storage, so callers may reuse the backing slice
// immediately.
func (g *Graph) AddNodeKV(label string, kv ...string) NodeID {
	if len(kv)%2 != 0 {
		panic("graphdb: AddNodeKV requires an even number of key/value strings")
	}
	id := NodeID(len(g.nodes) + 1)
	g.nodes = append(g.nodes, Node{ID: id, Label: label, Props: g.internProps(kv)})
	// Extend the out column by one empty run, reusing the run capacity
	// a Reset left behind in the backing array when possible.
	if len(g.out) < cap(g.out) {
		g.out = g.out[:len(g.out)+1]
		g.out[len(g.out)-1] = g.out[len(g.out)-1][:0]
	} else {
		g.out = append(g.out, nil)
	}
	g.byLabel[label] = append(g.byLabel[label], id)
	return id
}

// internProps copies kv into the property arena and returns the aliased
// span. Blocks never reallocate, so previously returned spans survive
// later inserts; oversized records get their own allocation.
func (g *Graph) internProps(kv []string) Props {
	if len(kv) == 0 {
		return nil
	}
	if len(kv) > propBlockSize {
		out := make(Props, len(kv))
		copy(out, kv)
		return out
	}
	if len(g.propCur)+len(kv) > cap(g.propCur) {
		if g.propCur != nil {
			g.propFull = append(g.propFull, g.propCur)
		}
		if n := len(g.propSpare); n > 0 {
			g.propCur, g.propSpare = g.propSpare[n-1], g.propSpare[:n-1]
		} else {
			g.propCur = make([]string, 0, propBlockSize)
		}
	}
	off := len(g.propCur)
	g.propCur = append(g.propCur, kv...)
	return Props(g.propCur[off:len(g.propCur):len(g.propCur)])
}

// AddEdge inserts a directed edge. Both endpoints must exist.
func (g *Graph) AddEdge(from, to NodeID, label string) error {
	if !g.has(from) {
		return fmt.Errorf("graphdb: edge from unknown node %d", from)
	}
	if !g.has(to) {
		return fmt.Errorf("graphdb: edge to unknown node %d", to)
	}
	g.out[from-1] = append(g.out[from-1], edge{to: to, label: label})
	g.edgeCount++
	return nil
}
