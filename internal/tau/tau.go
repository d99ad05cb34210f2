// Package tau is a Go analog of the TAU performance system's role in the
// paper: sampling-based per-rank profiles of workflow tasks, attributed to
// the correct heterogeneous task via a hostname tag and a task identifier
// (the two additions the paper made to TAU's Conduit data model), and a
// SOMA plugin that publishes those profiles to the performance namespace.
//
// In the simulated experiments the profiles are generated from the workload
// model's per-rank function breakdown — what tau_exec sampling would have
// observed; the plugin path (profile → Conduit → publish) is identical to a
// real deployment.
package tau

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// Profile is one rank's sampled function-time profile for one task.
type Profile struct {
	// TaskUID attributes the profile to a workflow task (the filename task
	// identifier the paper added).
	TaskUID string
	// Host is the compute node that ran the rank (the hostname tag).
	Host string
	// Rank is the MPI rank.
	Rank int
	// Seconds maps function name to inclusive seconds.
	Seconds map[string]float64
}

// Total returns the profile's total sampled seconds.
func (p *Profile) Total() float64 {
	t := 0.0
	for _, v := range p.Seconds {
		t += v
	}
	return t
}

// MPITime returns the seconds spent in MPI_* functions.
func (p *Profile) MPITime() float64 {
	t := 0.0
	for fn, v := range p.Seconds {
		if len(fn) >= 4 && fn[:4] == "MPI_" {
			t += v
		}
	}
	return t
}

// ToConduit renders the profile under the performance namespace layout:
//
//	TAU/<task uid>/<host>/rank_<n>/<function>: seconds
func (p *Profile) ToConduit() *conduit.Node {
	n := conduit.NewNode()
	base := fmt.Sprintf("TAU/%s/%s/rank_%05d", p.TaskUID, p.Host, p.Rank)
	fns := make([]string, 0, len(p.Seconds))
	for fn := range p.Seconds {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		n.SetFloat(base+"/"+fn, p.Seconds[fn])
	}
	return n
}

// FromConduit parses every profile found in a performance-namespace tree.
func FromConduit(root *conduit.Node) []Profile {
	tauNode, ok := root.Get("TAU")
	if !ok {
		return nil
	}
	var out []Profile
	for _, uid := range tauNode.ChildNames() {
		taskNode := tauNode.Child(uid)
		for _, host := range taskNode.ChildNames() {
			hostNode := taskNode.Child(host)
			for _, rankName := range hostNode.ChildNames() {
				var rank int
				if _, err := fmt.Sscanf(rankName, "rank_%d", &rank); err != nil {
					continue
				}
				rankNode := hostNode.Child(rankName)
				prof := Profile{TaskUID: uid, Host: host, Rank: rank,
					Seconds: map[string]float64{}}
				for _, fn := range rankNode.ChildNames() {
					if v, ok := rankNode.Float(fn); ok {
						prof.Seconds[fn] = v
					}
				}
				out = append(out, prof)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TaskUID != out[j].TaskUID {
			return out[i].TaskUID < out[j].TaskUID
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// FunctionTotals sums seconds per function across profiles — the aggregate
// view behind Fig. 5's load-balance analysis.
func FunctionTotals(profs []Profile) map[string]float64 {
	out := map[string]float64{}
	for _, p := range profs {
		for fn, v := range p.Seconds {
			out[fn] += v
		}
	}
	return out
}

// LoadImbalance returns, for one function, max/mean across ranks of one
// task (1.0 = perfectly balanced). Profiles from other tasks are ignored.
func LoadImbalance(profs []Profile, taskUID, fn string) float64 {
	var vals []float64
	for _, p := range profs {
		if p.TaskUID == taskUID {
			vals = append(vals, p.Seconds[fn])
		}
	}
	if len(vals) == 0 {
		return 0
	}
	maxV, sum := 0.0, 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	return maxV / mean
}

// Plugin is the TAU→SOMA bridge: it converts profiles to Conduit nodes and
// hands them to a publish function (a SOMA client's Publish bound to the
// performance namespace). It mirrors the paper's TAU plugin, which "creates
// a separate client object and connects to the SOMA instances reserved for
// monitoring the performance namespace".
type Plugin struct {
	publish func(*conduit.Node) error
	// Published counts successful publishes (for tests and overhead
	// accounting). Report may run on concurrent task goroutines, so the
	// increment is under mu; read it once they have finished.
	Published int
	mu        sync.Mutex
}

// NewPlugin wraps a publish function.
func NewPlugin(publish func(*conduit.Node) error) *Plugin {
	return &Plugin{publish: publish}
}

// Report publishes a batch of rank profiles as one Conduit tree.
func (pl *Plugin) Report(profs []Profile) error {
	if len(profs) == 0 {
		return nil
	}
	root := conduit.NewNode()
	for i := range profs {
		root.Merge(profs[i].ToConduit())
	}
	if err := pl.publish(root); err != nil {
		return err
	}
	pl.mu.Lock()
	pl.Published++
	pl.mu.Unlock()
	return nil
}
