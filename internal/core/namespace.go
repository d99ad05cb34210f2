// Package core implements SOMA — Service-based Observability, Monitoring,
// and Analysis — the paper's primary contribution, adapted for heterogeneous
// HPC workflows:
//
//   - a Service whose resources are partitioned into independent instances,
//     one per logical namespace (workflow, hardware, performance,
//     application), each with its own storage and lock;
//   - a Client stub that translates the SOMA monitoring API into RPCs over
//     internal/mercury (or local calls through the in-process transport),
//     with optional coalesced publishing and a spill queue for outages;
//   - collector daemons: the RP monitor (one per workflow, reading the
//     pilot's profile stream and publishing workflow-state statistics) and
//     the hardware monitor (one per compute node, publishing /proc data);
//   - online analysis over the collected data: workflow state statistics,
//     task throughput, per-node CPU utilization series, TAU load-balance
//     views, and an advisor that turns those metrics into task-configuration
//     suggestions (the paper's adaptive-experiment loop).
package core

import "fmt"

// Namespace identifies one of SOMA's logical data namespaces (paper §2.3.2).
type Namespace string

// The four namespaces of the paper's data model.
const (
	// NSWorkflow holds RP task/pilot state snapshots and statistics
	// (Listing 1); new in the paper.
	NSWorkflow Namespace = "workflow"
	// NSHardware holds /proc-derived node metrics (Listing 2); new in the
	// paper.
	NSHardware Namespace = "hardware"
	// NSPerformance holds TAU profiles.
	NSPerformance Namespace = "performance"
	// NSApplication holds application-reported figures of merit.
	NSApplication Namespace = "application"
)

// NSAlerts is the reserved stream name for threshold-alert transitions. It
// is not a storage namespace — nothing can be published into it (Valid stays
// false) — but Client.Subscribe accepts it to follow firing/resolved events
// from every namespace's alert rules.
const NSAlerts Namespace = "soma.alerts"

// Namespaces lists all four in the paper's order.
var Namespaces = []Namespace{NSWorkflow, NSHardware, NSPerformance, NSApplication}

// Valid reports whether ns is one of the four namespaces.
func (ns Namespace) Valid() bool {
	switch ns {
	case NSWorkflow, NSHardware, NSPerformance, NSApplication:
		return true
	}
	return false
}

// ErrUnknownNamespace reports a request against an undefined namespace.
type ErrUnknownNamespace struct{ NS Namespace }

func (e *ErrUnknownNamespace) Error() string {
	return fmt.Sprintf("soma: unknown namespace %q", string(e.NS))
}
