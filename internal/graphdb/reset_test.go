package graphdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildTagged fills g with a random graph whose node labels, edge
// labels and property values all carry tag, so graphs built with
// different tags share no vocabulary. The same seed and tag always
// produce the same graph.
func buildTagged(g *Graph, seed int64, tag string) {
	r := rand.New(rand.NewSource(seed))
	nodeLabels := []string{tag + "class", tag + "method", tag + "stmt"}
	edgeLabels := []string{tag + "calls", tag + "cfg", tag + "du"}
	n := 1 + r.Intn(40)
	for i := 0; i < n; i++ {
		label := nodeLabels[r.Intn(len(nodeLabels))]
		switch r.Intn(3) {
		case 0:
			g.AddNode(label, nil)
		case 1:
			g.AddNodeKV(label, "name", fmt.Sprintf("%sv%d", tag, r.Intn(4)))
		default:
			g.AddNodeKV(label, "kind", tag+"k", "name", fmt.Sprintf("%sv%d", tag, r.Intn(4)))
		}
	}
	for i := 0; i < 2*n; i++ {
		from, to := NodeID(1+r.Intn(n)), NodeID(1+r.Intn(n))
		if err := g.AddEdge(from, to, edgeLabels[r.Intn(len(edgeLabels))]); err != nil {
			panic(err)
		}
	}
}

// frozenDiff returns "" when the two views answer every query the same
// way over the vocabulary of tags, else a description of the first
// difference. want was built with the last tag.
func frozenDiff(got, want *Frozen, tags []string) string {
	if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() {
		return fmt.Sprintf("counts %d/%d vs %d/%d",
			got.NodeCount(), got.EdgeCount(), want.NodeCount(), want.EdgeCount())
	}
	wantNodes := want.Nodes()
	for i, n := range got.Nodes() {
		w := wantNodes[i]
		if n.ID != w.ID || n.Label != w.Label || !reflect.DeepEqual(n.Props, w.Props) {
			return fmt.Sprintf("node %d: %+v vs %+v", i+1, *n, *w)
		}
	}
	var nodeLabels, edgeLabels, values []string
	for _, tag := range tags {
		nodeLabels = append(nodeLabels, tag+"class", tag+"method", tag+"stmt")
		edgeLabels = append(edgeLabels, tag+"calls", tag+"cfg", tag+"du")
		values = append(values, tag+"k", tag+"v0", tag+"v1", tag+"v2", tag+"v3")
	}
	for _, label := range nodeLabels {
		if g, w := got.NodesByLabel(label), want.NodesByLabel(label); !sameIDs(g, w) {
			return fmt.Sprintf("NodesByLabel(%q): %v vs %v", label, g, w)
		}
	}
	for _, key := range []string{"name", "kind"} {
		for _, val := range append(values, "") {
			if g, w := got.FindByProp(key, val), want.FindByProp(key, val); !sameIDs(g, w) {
				return fmt.Sprintf("FindByProp(%q,%q): %v vs %v", key, val, g, w)
			}
		}
	}
	cur := tags[len(tags)-1]
	n := NodeID(want.NodeCount())
	for id := NodeID(1); id <= n; id++ {
		for _, label := range append(edgeLabels, "") {
			if g, w := got.Out(id, label), want.Out(id, label); !sameIDs(g, w) {
				return fmt.Sprintf("Out(%d,%q): %v vs %v", id, label, g, w)
			}
			if g, w := got.In(id, label), want.In(id, label); !sameIDs(g, w) {
				return fmt.Sprintf("In(%d,%q): %v vs %v", id, label, g, w)
			}
		}
		for _, to := range []NodeID{1, n/2 + 1, n, id} {
			for _, labels := range [][]string{nil, {cur + "calls", cur + "cfg"}} {
				if g, w := got.Path(id, to, labels), want.Path(id, to, labels); !sameIDs(g, w) {
					return fmt.Sprintf("Path(%d,%d,%v): %v vs %v", id, to, labels, g, w)
				}
			}
		}
	}
	return ""
}

// TestResetMatchesFreshGraph: a graph reused through Reset answers
// exactly like a fresh graph. Each round builds a graph with its own
// labels and property values into the reused graph, and its Frozen view
// must equal that of New() built the same way: nothing from earlier
// graphs (larger or smaller, frozen or not) may leak into nodes,
// adjacency runs, label lists, property lookups or paths.
func TestResetMatchesFreshGraph(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reused := New()
		var tags []string
		for round := 0; round < 4; round++ {
			if round > 0 {
				reused.Reset()
			}
			if r.Intn(2) == 0 { // a build that is reset without a Freeze
				tag := fmt.Sprintf("u%d-", round)
				tags = append(tags, tag)
				buildTagged(reused, r.Int63(), tag)
				reused.Reset()
			}
			tag := fmt.Sprintf("r%d-", round)
			tags = append(tags, tag)
			buildSeed := r.Int63()
			buildTagged(reused, buildSeed, tag)
			fresh := New()
			buildTagged(fresh, buildSeed, tag)
			if d := frozenDiff(reused.Freeze(), fresh.Freeze(), tags); d != "" {
				t.Logf("seed %d round %d: %s", seed, round, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
