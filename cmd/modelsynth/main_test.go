package main

import (
	"fmt"
	"testing"

	"github.com/tracesynth/rostracer/internal/analysis"
)

// TestRenderBindingDeterministic renders one binding twice: the text
// must not depend on map iteration order, and lists nodes by (cpu, node).
func TestRenderBindingDeterministic(t *testing.T) {
	b := analysis.Binding{CPUOf: map[string]int{}, MaxLoad: 0.5}
	for i := 0; i < 24; i++ {
		b.CPUOf[fmt.Sprintf("node%02d", 23-i)] = i % 4
	}
	first := renderBinding(b)
	if second := renderBinding(b); second != first {
		t.Fatalf("two renderings differ:\n%s\n---\n%s", first, second)
	}
	want := "greedy 4-core binding:\n  cpu0 <- node03\n  cpu0 <- node07\n"
	if first[:len(want)] != want {
		t.Fatalf("binding not sorted by (cpu, node):\n%s", first)
	}
}
