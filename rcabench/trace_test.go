package main

import "testing"

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass/0/X", "investigation", 0)
	if err := tr.do("pass/0/X", "core.refine", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != spans[0].Op {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End {
		t.Error("parent ended before its child")
	}
	var off *tracer // untraced runs call a nil tracer
	if id := off.begin("x", "y", 0); id != 0 {
		t.Error("nil tracer recorded a span")
	}
	off.end(0)
}
