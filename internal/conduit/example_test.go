package conduit_test

import (
	"fmt"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// The hierarchical layouts of the paper's Listings 1 and 2 translate
// directly to paths.
func ExampleNode() {
	n := conduit.NewNode()
	n.SetString("RP/task.000000/1698435412.6060030", "launch_start")
	n.SetInt("PROC/cn4302/3824813742052238/Uptime", 49902)

	event, _ := n.StringVal("RP/task.000000/1698435412.6060030")
	uptime, _ := n.Int("PROC/cn4302/3824813742052238/Uptime")
	fmt.Println(event, uptime)
	// Output: launch_start 49902
}

func ExampleNode_Merge() {
	service := conduit.NewNode()
	update1 := conduit.NewNode()
	update1.SetFloat("PROC/cn0001/10.0/CPU Util", 25)
	update2 := conduit.NewNode()
	update2.SetFloat("PROC/cn0001/20.0/CPU Util", 75)

	service.Merge(update1)
	service.Merge(update2)
	fmt.Println(service.NumLeaves(), "samples merged")
	// Output: 2 samples merged
}

func ExampleNode_Select() {
	n := conduit.NewNode()
	n.SetFloat("PROC/cn0001/10.0/CPU Util", 20)
	n.SetFloat("PROC/cn0002/10.0/CPU Util", 60)

	for _, path := range n.Select("PROC/*/*/CPU Util") {
		v, _ := n.Float(path)
		fmt.Println(v)
	}
	// Output:
	// 20
	// 60
}

func ExampleDecodeBinary() {
	n := conduit.NewNode()
	n.SetString("ns", "workflow")
	n.SetIntArray("data/stat/cpu", []int64{10749, 865, 685})

	wire := n.EncodeBinary() // what goes over RPC
	back, err := conduit.DecodeBinary(wire)
	if err != nil {
		panic(err)
	}
	ns, _ := back.StringVal("ns")
	fmt.Println(ns, back.Equal(n))
	// Output: workflow true
}
