package conduit

import (
	"reflect"
	"testing"
)

func selectFixture() *Node {
	n := NewNode()
	n.SetFloat("PROC/cn0001/10.0/CPU Util", 20)
	n.SetFloat("PROC/cn0001/20.0/CPU Util", 40)
	n.SetFloat("PROC/cn0002/10.0/CPU Util", 60)
	n.SetInt("PROC/cn0002/10.0/Num Processes", 5)
	n.SetString("RP/task.000007/1.0", "launch_start")
	n.SetString("RP/task.000007/2.0", "exec_start")
	return n
}

func TestSelectSingleStar(t *testing.T) {
	n := selectFixture()
	got := n.Select("PROC/*/10.0/CPU Util")
	want := []string{"PROC/cn0001/10.0/CPU Util", "PROC/cn0002/10.0/CPU Util"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// '*' matches exactly one segment: no match at the wrong depth.
	if got := n.Select("PROC/*/CPU Util"); got != nil {
		t.Fatalf("wrong-depth match: %v", got)
	}
}

func TestSelectDoubleStar(t *testing.T) {
	n := selectFixture()
	got := n.Select("RP/task.000007/**")
	want := []string{"RP/task.000007/1.0", "RP/task.000007/2.0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if all := n.Select("**"); len(all) != n.NumLeaves() {
		t.Fatalf("** matched %d of %d leaves", len(all), n.NumLeaves())
	}
}

func TestSelectExactAndMisses(t *testing.T) {
	n := selectFixture()
	if got := n.Select("PROC/cn0001/20.0/CPU Util"); len(got) != 1 {
		t.Fatalf("exact = %v", got)
	}
	if got := n.Select("PROC/cn0009/**"); got != nil {
		t.Fatalf("missing host matched: %v", got)
	}
	if got := n.Select(""); got != nil {
		t.Fatalf("empty pattern matched: %v", got)
	}
	// Pattern ending on an interior node matches nothing (leaves only).
	if got := n.Select("PROC/cn0001"); got != nil {
		t.Fatalf("interior match: %v", got)
	}
}
