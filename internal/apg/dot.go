package apg

import (
	"fmt"
	"io"

	"ppchecker/internal/graphdb"
)

// WriteDot renders the APG's class/method layer as a Graphviz dot
// document: class clusters containing method nodes, with call,
// callback, and icc edges. Statement nodes are omitted — the method
// graph is what one inspects when debugging reachability.
func (p *APG) WriteDot(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph apg {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")

	// Stable ordering: NodesByLabel lists methods by ascending node id.
	type methodInfo struct {
		id    graphdb.NodeID
		class string
		name  string
	}
	f := p.Frozen()
	var methods []methodInfo
	for _, id := range f.NodesByLabel(LabelMethod) {
		n := f.Node(id)
		methods = append(methods, methodInfo{id: id, class: n.Prop("class"), name: n.Prop("name")})
	}

	byClass := map[string][]methodInfo{}
	var classes []string
	for _, m := range methods {
		if len(byClass[m.class]) == 0 {
			classes = append(classes, m.class)
		}
		byClass[m.class] = append(byClass[m.class], m)
	}
	entries := map[graphdb.NodeID]bool{}
	for _, e := range p.Entries() {
		if id, ok := p.methodNode[e]; ok {
			entries[id] = true
		}
	}
	for ci, cls := range classes {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n    label=%q;\n", ci, cls)
		for _, m := range byClass[cls] {
			attrs := ""
			if entries[m.id] {
				attrs = ", style=filled, fillcolor=lightblue"
			}
			fmt.Fprintf(w, "    n%d [label=%q%s];\n", m.id, m.name, attrs)
		}
		fmt.Fprintln(w, "  }")
	}
	// Within a method, edges come out grouped by label in this order.
	styles := []struct{ label, attrs string }{
		{EdgeCalls, ""},
		{EdgeCallback, " [style=dashed, color=darkorange, label=\"cb\"]"},
		{EdgeICC, " [style=dotted, color=purple, label=\"icc\"]"},
	}
	var targets []graphdb.NodeID
	for _, m := range methods {
		for _, st := range styles {
			targets = f.OutInto(targets[:0], m.id, st.label)
			for _, to := range targets {
				fmt.Fprintf(w, "  n%d -> n%d%s;\n", m.id, to, st.attrs)
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
