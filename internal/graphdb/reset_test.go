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
			g.AddNodeKV(label)
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
	if len(got.nodes) != len(want.nodes) || len(got.outTo) != len(want.outTo) {
		return fmt.Sprintf("counts %d/%d vs %d/%d",
			len(got.nodes), len(got.outTo), len(want.nodes), len(want.outTo))
	}
	n := NodeID(len(want.nodes))
	for id := NodeID(1); id <= n; id++ {
		g, w := got.Node(id), want.Node(id)
		if g.ID != w.ID || g.Label != w.Label || !reflect.DeepEqual(g.Props, w.Props) {
			return fmt.Sprintf("node %d: %+v vs %+v", id, *g, *w)
		}
	}
	var nodeLabels, edgeLabels []string
	for _, tag := range tags {
		nodeLabels = append(nodeLabels, tag+"class", tag+"method", tag+"stmt")
		edgeLabels = append(edgeLabels, tag+"calls", tag+"cfg", tag+"du")
	}
	for _, label := range nodeLabels {
		if g, w := got.NodesByLabel(label), want.NodesByLabel(label); !sameIDs(g, w) {
			return fmt.Sprintf("NodesByLabel(%q): %v vs %v", label, g, w)
		}
	}
	cur := tags[len(tags)-1]
	for id := NodeID(1); id <= n; id++ {
		for _, label := range append(edgeLabels, "") {
			if g, w := got.OutInto(nil, id, label), want.OutInto(nil, id, label); !sameIDs(g, w) {
				return fmt.Sprintf("OutInto(%d,%q): %v vs %v", id, label, g, w)
			}
		}
		for _, labels := range [][]string{nil, {cur + "calls", cur + "cfg"}} {
			if g, w := got.ReachableVisit([]NodeID{id}, labels), want.ReachableVisit([]NodeID{id}, labels); !sameIDs(g.Order, w.Order) {
				return fmt.Sprintf("ReachableVisit(%d,%v): %v vs %v", id, labels, g.Order, w.Order)
			}
			for _, to := range []NodeID{1, n/2 + 1, n, id} {
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
// adjacency runs, label lists, closures or paths.
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
