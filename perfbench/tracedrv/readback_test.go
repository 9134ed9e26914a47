package main

import (
	"slices"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func TestQueriesAreSeededAndInsideTheSession(t *testing.T) {
	nodes := []string{"a", "b"}
	q1, err := genQueries(7, 300*sim.Second, nodes, 40)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := genQueries(7, 300*sim.Second, nodes, 40)
	q3, _ := genQueries(8, 300*sim.Second, nodes, 40)
	same := func(a, b []Query) bool {
		return slices.EqualFunc(a, b, func(x, y Query) bool { return slices.Equal(x.Args, y.Args) })
	}
	if !same(q1, q2) || same(q1, q3) {
		t.Fatal("queries must depend on the seed and on nothing else")
	}
	for i, q := range q1 {
		f := q.Filter
		if f.T1 <= f.T0 || f.T1 > sim.Time(300*sim.Second) {
			t.Errorf("query %d window [%d, %d] outside the session", i, f.T0, f.T1)
		}
		if (f.Node != "") != (i%4 == 3) || (len(f.Kinds) > 0) != (i%4 == 2) {
			t.Errorf("query %d %v: wrong shape for its slot", i, q.Args)
		}
	}
}

func TestBruteForceFilter(t *testing.T) {
	evs := []trace.Event{
		{Time: 1, Kind: trace.KindCreateNode, Node: "a"},
		{Time: 5, Kind: trace.KindSchedSwitch},
		{Time: 9, Kind: trace.KindTakeInt},
	}
	cases := []struct {
		f    trace.Filter
		want []sim.Time
	}{
		{trace.Filter{}, []sim.Time{1, 5, 9}},
		{trace.Filter{T0: 5}, []sim.Time{5, 9}},
		{trace.Filter{T0: 2, T1: 9}, []sim.Time{5, 9}},
		{trace.Filter{Kinds: []trace.Kind{trace.KindTakeInt, trace.KindCreateNode}}, []sim.Time{1, 9}},
		{trace.Filter{Node: "a", T1: 4}, []sim.Time{1}},
		{trace.Filter{Node: "b"}, nil},
	}
	for _, c := range cases {
		var got []sim.Time
		for _, e := range bruteForce(evs, c.f) {
			got = append(got, e.Time)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%+v: got %v, want %v", c.f, got, c.want)
		}
	}
}
