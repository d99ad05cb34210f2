package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Threshold alert evaluator: declarative rules (metric pattern, predicate,
// window, severity) judged against the rollup windows at publish time. A
// rule transitions to firing when the windowed mean of a matching series
// crosses its threshold, and back to resolved when it recedes; both
// transitions are published on the reserved soma.alerts stream so watchers
// see them without polling. Between transitions the evaluator is silent —
// the current standing is queryable via soma.alert.list.
//
// Cost discipline: with no rules installed the publish path pays one atomic
// load and a pointer compare per sample; with rules, each series is matched
// against its namespace's pre-split patterns once per rule set
// (series.judge), the fold hands back the watched series it touched
// (seriesStore.ingest), and only those are (re-)evaluated, through their
// handles.

var (
	telAlertsFiring      = telemetry.Default().Gauge("core.alerts.firing")
	telAlertsTransitions = telemetry.Default().Counter("core.alerts.transitions")
)

// DefaultAlertSeverity is used when a rule does not name one.
const DefaultAlertSeverity = "warning"

// AlertRule is one declarative threshold rule. A rule watches every series
// of NS whose key matches Pattern and fires when the mean over the trailing
// WindowSec seconds satisfies "value Op Threshold".
type AlertRule struct {
	Name      string    `conduit:"name" json:"name"` // unique rule name
	NS        Namespace `conduit:"ns" json:"ns"`
	Pattern   string    `conduit:"pattern" json:"pattern"` // series-key glob: '*' one segment, '**' any tail
	Op        string    `conduit:"op" json:"op"`           // one of > < >= <=
	Threshold float64   `conduit:"threshold" json:"threshold"`
	WindowSec float64   `conduit:"window" json:"window_sec"` // trailing window width; min 1 (one rollup bucket)
	Severity  string    `conduit:"severity" json:"severity"` // free-form label carried on transitions (default "warning")
}

func (r *AlertRule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("soma: alert rule missing name")
	}
	if !r.NS.Valid() {
		return &ErrUnknownNamespace{NS: r.NS}
	}
	if r.Pattern == "" {
		return fmt.Errorf("soma: alert rule %q missing pattern", r.Name)
	}
	switch r.Op {
	case ">", "<", ">=", "<=":
	default:
		return fmt.Errorf("soma: alert rule %q has unknown op %q", r.Name, r.Op)
	}
	if r.WindowSec < 1 {
		r.WindowSec = 1
	}
	if r.Severity == "" {
		r.Severity = DefaultAlertSeverity
	}
	return nil
}

func (r *AlertRule) eval(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Threshold
	case "<":
		return v < r.Threshold
	case ">=":
		return v >= r.Threshold
	default:
		return v <= r.Threshold
	}
}

// AlertState is the current standing of one (rule, series) pair.
type AlertState struct {
	Rule     string    `conduit:"rule" json:"rule"`
	NS       Namespace `conduit:"ns" json:"ns"`
	Key      string    `conduit:"key" json:"key"`
	Severity string    `conduit:"severity" json:"severity"`
	Firing   bool      `conduit:"firing" json:"firing"`
	Value    float64   `conduit:"value" json:"value"` // windowed mean at the last transition or evaluation
	Since    float64   `conduit:"since" json:"since"` // service time of the last transition
}

type alertState struct {
	firing bool
	value  float64
	since  float64
}

// armedRule is an installed rule with its pattern split once, at install
// time, for the per-series match on the ingest path.
type armedRule struct {
	AlertRule
	segs []string
}

// armedSet is an immutable copy of the installed rules, one slice for each
// namespace that has any. Every republish makes every slice anew, so a
// slice's pointer names one namespace's rules under one rule set.
type armedSet map[Namespace]*[]*armedRule

// of returns the armed rules of ns; nil when it has none.
func (a *armedSet) of(ns Namespace) *[]*armedRule {
	if a == nil {
		return nil
	}
	return (*a)[ns]
}

// alertEngine holds the rule set and per-(rule, series) state for one
// service.
type alertEngine struct {
	// armed is the rule set as the publish hot path reads it (or learns
	// there are none): one atomic load and no lock. It is republished on
	// every set/remove, and each series re-judges its match against its
	// namespace's new slice (series.judge).
	armed atomic.Pointer[armedSet]

	mu     sync.Mutex
	rules  map[string]*armedRule
	states map[string]map[string]*alertState // rule name → series key → state

	// notify logs a transition tree on the update log's alert topics (the
	// reserved alerts stream); set by the owning Service.
	notify func(ns Namespace, tree *conduit.Node)
}

func newAlertEngine(notify func(Namespace, *conduit.Node)) *alertEngine {
	return &alertEngine{
		rules:  map[string]*armedRule{},
		states: map[string]map[string]*alertState{},
		notify: notify,
	}
}

// rearm republishes the lock-free copy of the rule set; called under mu.
func (e *alertEngine) rearm() {
	if len(e.rules) == 0 {
		e.armed.Store(nil)
		return
	}
	armed := armedSet{}
	for _, r := range e.rules {
		rules := armed[r.NS]
		if rules == nil {
			rules = new([]*armedRule)
			armed[r.NS] = rules
		}
		*rules = append(*rules, r)
	}
	e.armed.Store(&armed)
}

// set installs or replaces a rule. Replacing clears the rule's firing state
// (its predicate may have changed meaning).
func (e *alertEngine) set(r AlertRule) error {
	if err := r.validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.states[r.Name]; ok {
		for range firingOf(old) {
			telAlertsFiring.Dec()
		}
	}
	e.rules[r.Name] = &armedRule{AlertRule: r, segs: strings.Split(r.Pattern, "/")}
	e.states[r.Name] = map[string]*alertState{}
	e.rearm()
	return nil
}

// remove deletes a rule and its state; it reports whether the rule existed.
func (e *alertEngine) remove(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[name]; !ok {
		return false
	}
	for range firingOf(e.states[name]) {
		telAlertsFiring.Dec()
	}
	delete(e.rules, name)
	delete(e.states, name)
	e.rearm()
	return true
}

// resetNamespace drops the per-series standings of every rule watching ns,
// keeping the rules themselves. Called on ResetNamespace: the rollup series
// backing the standings are gone, so a firing alert would otherwise stay
// firing forever (evaluate only revisits keys touched by new publishes).
func (e *alertEngine) resetNamespace(ns Namespace) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, r := range e.rules {
		if r.NS != ns {
			continue
		}
		for range firingOf(e.states[name]) {
			telAlertsFiring.Dec()
		}
		e.states[name] = map[string]*alertState{}
	}
}

func firingOf(m map[string]*alertState) []string {
	var out []string
	for k, st := range m {
		if st.firing {
			out = append(out, k)
		}
	}
	return out
}

// list returns the rule set and the per-series standings, both sorted.
func (e *alertEngine) list() ([]AlertRule, []AlertState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rules := make([]AlertRule, 0, len(e.rules))
	for _, r := range e.rules {
		rules = append(rules, r.AlertRule)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	var states []AlertState
	for name, m := range e.states {
		r := e.rules[name]
		for key, st := range m {
			states = append(states, AlertState{
				Rule: name, NS: r.NS, Key: key, Severity: r.Severity,
				Firing: st.firing, Value: st.value, Since: st.since,
			})
		}
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].Rule != states[j].Rule {
			return states[i].Rule < states[j].Rule
		}
		return states[i].Key < states[j].Key
	})
	return rules, states
}

// evaluate re-judges the rules watching each series a run of publishes of ns
// just touched (in the order the fold returned them). now is the newest
// sample time of the run; the rule window is [now-WindowSec, now]. A series
// whose match was judged against an older rule set is judged again against
// the one in force, so a rule set or removed since the fold is honoured.
// Transitions are published via notify.
func (e *alertEngine) evaluate(ns Namespace, store *seriesStore, watched []*series, now float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	armed := e.armed.Load().of(ns) // rearm runs under mu: these are the rules in force
	store.mu.Lock()
	defer store.mu.Unlock()
	for _, se := range watched {
		if se.armed == orphaned {
			continue
		}
		se.judge(armed)
		for _, r := range se.rules {
			agg, ok := se.b1.window(now-r.WindowSec, now)
			if !ok {
				continue
			}
			firing := r.eval(agg.Mean)
			m := e.states[r.Name]
			st, seen := m[se.key]
			if !seen {
				st = &alertState{since: now}
				m[se.key] = st
			}
			st.value = agg.Mean
			if seen && firing == st.firing {
				continue
			}
			if !seen && !firing {
				continue // first sight, healthy: record standing silently
			}
			st.firing = firing
			st.since = now
			telAlertsTransitions.Inc()
			if firing {
				telAlertsFiring.Inc()
			} else {
				telAlertsFiring.Dec()
			}
			if e.notify != nil {
				e.notify(ns, alertTransitionTree(&r.AlertRule, se.key, firing, agg.Mean, now))
			}
		}
	}
}

// alertTransitionTree builds the conduit tree published on the soma.alerts
// stream for one firing/resolved transition.
func alertTransitionTree(r *AlertRule, key string, firing bool, value, now float64) *conduit.Node {
	tr := conduit.NewNode()
	tr.SetString("rule", r.Name)
	tr.SetString("key", key)
	tr.SetString("ns", string(r.NS))
	tr.SetString("severity", r.Severity)
	if firing {
		tr.SetString("state", "firing")
	} else {
		tr.SetString("state", "resolved")
	}
	tr.SetFloat("value", value)
	tr.SetFloat("threshold", r.Threshold)
	tr.SetFloat("window", r.WindowSec)
	tr.SetFloat("time", now)
	return tr
}

// ---------------------------------------------------------------------------
// Service surface.

// SetAlert installs (or replaces) a threshold alert rule.
func (s *Service) SetAlert(r AlertRule) error {
	if _, err := s.running(r.NS); err != nil {
		return err
	}
	return s.alerts.set(r)
}

// RemoveAlert deletes a rule by name.
func (s *Service) RemoveAlert(name string) error {
	if s.Stopped() {
		return ErrServiceStopped
	}
	if !s.alerts.remove(name) {
		return fmt.Errorf("soma: no alert rule named %q", name)
	}
	return nil
}

// Alerts returns the installed rules and current per-series standings.
func (s *Service) Alerts() ([]AlertRule, []AlertState) {
	return s.alerts.list()
}

// ---------------------------------------------------------------------------
// RPC surface. soma.alert.set sends the AlertRule itself, soma.alert.rm a rule
// holding only its Name, and soma.alert.list answers an alertList.

// alertList is the soma.alert.list answer: the rules and the per-series
// standings, both sorted.
type alertList struct {
	Rules  []AlertRule  `conduit:"rules"`
	States []AlertState `conduit:"states"`
}

func (s *Service) handleAlertSet(_ context.Context, payload []byte) ([]byte, error) {
	var r AlertRule
	if err := unmarshalFrame(payload, &r); err != nil {
		return nil, err
	}
	if err := s.SetAlert(r); err != nil {
		return nil, err
	}
	return okFrame, nil
}

func (s *Service) handleAlertRemove(_ context.Context, payload []byte) ([]byte, error) {
	var r AlertRule
	if err := unmarshalFrame(payload, &r); err != nil {
		return nil, err
	}
	if err := s.RemoveAlert(r.Name); err != nil {
		return nil, err
	}
	return okFrame, nil
}

func (s *Service) handleAlertList(_ context.Context, _ []byte) ([]byte, error) {
	if s.Stopped() {
		return nil, ErrServiceStopped
	}
	rules, states := s.Alerts()
	return conduit.Marshal(alertList{rules, states}).EncodeBinary(), nil
}

// ---------------------------------------------------------------------------
// Client surface.

// SetAlert installs (or replaces) a threshold alert rule on the service.
func (c *Client) SetAlert(r AlertRule) error {
	return c.call(context.Background(), RPCAlertSet, r, nil)
}

// RemoveAlert deletes a rule by name.
func (c *Client) RemoveAlert(name string) error {
	return c.call(context.Background(), RPCAlertRemove, AlertRule{Name: name}, nil)
}

// Alerts fetches the service's installed rules and per-series standings.
func (c *Client) Alerts() ([]AlertRule, []AlertState, error) {
	var l alertList
	if err := c.call(context.Background(), RPCAlertList, nil, &l); err != nil {
		return nil, nil, err
	}
	return l.Rules, l.States, nil
}
