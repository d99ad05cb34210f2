package core

import (
	"path/filepath"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/des"
)

func TestSnapshotRoundTripThroughFile(t *testing.T) {
	eng := des.NewEngine()
	svc := NewService(ServiceConfig{Clock: eng})
	defer svc.Close()
	wf := conduit.NewNode()
	wf.SetString("RP/task.000000/1.5000000", "launch_start")
	svc.Publish(NSWorkflow, wf, 100)
	hw := conduit.NewNode()
	hw.SetFloat("PROC/cn0001/2.0/CPU Util", 55)
	svc.Publish(NSHardware, hw, 50)

	snap, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "soma-snapshot.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offline analysis through the same API.
	a := Analysis{Q: back}
	evs, err := a.TaskEvents("task.000000")
	if err != nil || len(evs) != 1 || evs[0].Name != "launch_start" {
		t.Fatalf("offline events = %v, %v", evs, err)
	}
	series, err := a.CPUUtilSeries("cn0001")
	if err != nil || len(series) != 1 || series[0].Util != 55 {
		t.Fatalf("offline util = %v, %v", series, err)
	}
	// Stats survive.
	var wfStats *InstanceStats
	for i := range back.Stats {
		if back.Stats[i].Namespace == NSWorkflow {
			wfStats = &back.Stats[i]
		}
	}
	if wfStats == nil || wfStats.Publishes != 1 || wfStats.BytesIn != 100 {
		t.Fatalf("offline stats = %+v", wfStats)
	}
	// Unknown namespace errors offline too.
	if _, err := back.Query("bogus", ""); err == nil {
		t.Fatal("bogus namespace accepted offline")
	}
	// Missing path yields empty tree.
	empty, err := back.Query(NSPerformance, "nothing/here")
	if err != nil || empty.NumLeaves() != 0 {
		t.Fatalf("missing path offline = %v, %v", empty, err)
	}
}

func TestSnapshotWorksOnStoppedService(t *testing.T) {
	svc := NewService(ServiceConfig{})
	n := conduit.NewNode()
	n.SetInt("x", 1)
	svc.Publish(NSWorkflow, n, 0)
	svc.Close()
	snap, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Namespaces[NSWorkflow].Int("x"); v != 1 {
		t.Fatal("post-mortem snapshot lost data")
	}
}

func TestSnapshotRejectsWrongVersion(t *testing.T) {
	var sn Snapshot
	if err := sn.UnmarshalJSON([]byte(`{"version":99,"namespaces":{},"stats":{}}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if err := sn.UnmarshalJSON([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadSnapshotMissingFile(t *testing.T) {
	if _, err := ReadSnapshot("/no/such/file.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
