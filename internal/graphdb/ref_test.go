package graphdb

// The reference the frozen view is checked against: a plain
// breadth-first search over the builder's out-edge runs, with maps for
// its visited set and label filter. It shares no code with the CSR
// traversals.

// refBFS returns the forward closure from seeds following edges whose
// label is in labels (nil = all) in visit order (seeds first), and the
// node each visited node was first reached from (seeds map to
// themselves). Unknown seeds are ignored.
func refBFS(g *Graph, seeds []NodeID, labels []string) (order []NodeID, prev map[NodeID]NodeID) {
	var allow map[string]bool
	if labels != nil {
		allow = map[string]bool{}
		for _, l := range labels {
			allow[l] = true
		}
	}
	prev = map[NodeID]NodeID{}
	for _, s := range seeds {
		if _, seen := prev[s]; g.has(s) && !seen {
			prev[s] = s
			order = append(order, s)
		}
	}
	for head := 0; head < len(order); head++ {
		cur := order[head]
		for _, e := range g.out[cur-1] {
			if allow != nil && !allow[e.label] {
				continue
			}
			if _, seen := prev[e.to]; !seen {
				prev[e.to] = cur
				order = append(order, e.to)
			}
		}
	}
	return order, prev
}

// refPath is the shortest path refBFS finds from from to to, or nil.
func refPath(g *Graph, from, to NodeID, labels []string) []NodeID {
	if !g.has(to) {
		return nil
	}
	_, prev := refBFS(g, []NodeID{from}, labels)
	if _, ok := prev[to]; !ok {
		return nil
	}
	path := []NodeID{to}
	for cur := to; cur != from; {
		cur = prev[cur]
		path = append([]NodeID{cur}, path...)
	}
	return path
}

// refOut lists the targets of id's out-edges labelled label ("" = any)
// in insertion order.
func refOut(g *Graph, id NodeID, label string) []NodeID {
	if !g.has(id) {
		return nil
	}
	var out []NodeID
	for _, e := range g.out[id-1] {
		if label == "" || e.label == label {
			out = append(out, e.to)
		}
	}
	return out
}

// refByLabel lists the nodes carrying label in ascending ID order.
func refByLabel(g *Graph, label string) []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].Label == label {
			out = append(out, g.nodes[i].ID)
		}
	}
	return out
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
