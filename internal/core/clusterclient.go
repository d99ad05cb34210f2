package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// ClusterClient is the shard-routing client stub for a multi-instance SOMA
// fleet. It bootstraps the hash ring from one seed instance's soma.ring,
// keeps the ring fresh in the background (cached by epoch — refresh is a
// tiny frame unless membership actually changed), and routes every publish
// directly to the instance that owns its shard key: no proxy hop, one
// pipelined connection (with its own batch coalescer) per peer.
//
// It only writes: any member answers a read with the union of all shards, so
// readers dial one with a plain Client. Routing is an optimization, not a
// correctness requirement: if the client's ring lags the fleet's (a member
// just died or joined), a publish sent to the wrong instance is forwarded
// server-side, and scattered reads find data wherever it landed.
type ClusterClient struct {
	engine *mercury.Engine
	cfg    ClusterClientConfig
	seed   string

	mu      sync.Mutex
	ring    *cluster.Ring
	vnodes  int
	clients map[string]*Client // per member address, lazily connected
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// ClusterClientConfig tunes a ClusterClient; the zero value works.
type ClusterClientConfig struct {
	// Policy is the mercury call policy for every per-member connection;
	// nil keeps the default.
	Policy *mercury.CallPolicy
	// Batch, when non-nil, enables the publish coalescer on every
	// per-member connection — the per-peer pipelined batching mode.
	Batch *BatchConfig
	// RefreshInterval is the background ring refresh cadence; 0 = 500ms,
	// negative disables the refresher (tests drive RefreshRing directly).
	RefreshInterval time.Duration
}

// ConnectCluster bootstraps a shard-routing client from one seed instance.
// The seed answers soma.ring with the fleet's membership; an unclustered
// seed (epoch 0) — or one predating the RPC — degrades to a cluster of one,
// so ConnectCluster works against any service.
func ConnectCluster(seed string, engine *mercury.Engine, cfg ClusterClientConfig) (*ClusterClient, error) {
	c := &ClusterClient{
		engine:  engine,
		cfg:     cfg,
		seed:    seed,
		vnodes:  cluster.DefaultVnodes,
		clients: map[string]*Client{},
		stop:    make(chan struct{}),
	}
	c.ring = cluster.NewRing([]cluster.Member{{Addr: seed}}, c.vnodes)
	// Bootstrap must reach the seed — a routing client with no fleet view
	// would silently behave as a single-instance client.
	if _, err := c.client(seed); err != nil {
		return nil, err
	}
	if err := c.RefreshRing(); err != nil {
		return nil, fmt.Errorf("soma: cluster bootstrap via %s: %w", seed, err)
	}
	interval := cfg.RefreshInterval
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if interval > 0 {
		c.wg.Add(1)
		go c.refreshLoop(interval)
	}
	return c, nil
}

// Ring returns the cached ring (current epoch and members).
func (c *ClusterClient) Ring() *cluster.Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// client returns (connecting on first use) the per-member client for addr.
func (c *ClusterClient) client(addr string) (*Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("soma: cluster client closed")
	}
	if cl := c.clients[addr]; cl != nil {
		return cl, nil
	}
	cl, err := ConnectPolicy(addr, c.engine, c.cfg.Policy)
	if err != nil {
		return nil, err
	}
	if c.cfg.Batch != nil {
		cl.EnableBatch(*c.cfg.Batch)
	}
	c.clients[addr] = cl
	return cl, nil
}

func (c *ClusterClient) refreshLoop(interval time.Duration) {
	defer c.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		// Refresh failures are tolerated: the cached ring keeps routing, and
		// server-side forwarding corrects any stale placements meanwhile.
		_ = c.RefreshRing()
	}
}

// RefreshRing re-fetches the membership view and swaps the cached ring when
// the epoch moved. Members are tried in ring order, the seed as fallback —
// any one live instance can answer for the fleet.
func (c *ClusterClient) RefreshRing() error {
	c.mu.Lock()
	ring := c.ring
	c.mu.Unlock()
	addrs := make([]string, 0, ring.Len()+1)
	for _, m := range ring.Members() {
		addrs = append(addrs, m.Addr)
	}
	if !slices.Contains(addrs, c.seed) {
		addrs = append(addrs, c.seed)
	}
	var lastErr error
	for _, addr := range addrs {
		cl, err := c.client(addr)
		if err != nil {
			lastErr = err
			continue
		}
		var view ringAnswer
		if err := cl.call(context.Background(), RPCRing, nil, &view); err != nil {
			if errors.Is(err, mercury.ErrUnknownRPC) {
				// Pre-cluster server: permanently a cluster of one.
				return nil
			}
			lastErr = err
			continue
		}
		c.applyRing(addr, view)
		return nil
	}
	return lastErr
}

// applyRing folds one soma.ring answer into the cached ring. Epoch 0 means
// the answering instance is not clustered: it alone is the fleet.
func (c *ClusterClient) applyRing(from string, view ringAnswer) {
	members := view.members()
	if view.Epoch == 0 || len(members) == 0 {
		members = []cluster.Member{{Addr: from}}
	}
	if view.Vnodes > 0 {
		c.vnodes = view.Vnodes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := cluster.NewRing(members, c.vnodes)
	if next.Epoch() != c.ring.Epoch() {
		c.ring = next
	}
}

// ownerClient resolves the member that owns (ns, leafPath) on the cached
// ring and returns its connection.
func (c *ClusterClient) ownerClient(ns Namespace, leafPath string) (*Client, error) {
	c.mu.Lock()
	ring := c.ring
	c.mu.Unlock()
	owner, ok := ring.Owner(cluster.ShardKey(string(ns), leafPath))
	if !ok {
		return c.client(c.seed)
	}
	return c.client(owner.Addr)
}

// Publish routes a tree to the instance owning its first leaf's shard key.
// Multi-leaf trees route as a unit, exactly like server-side placement: the
// tree is encoded once and the key read off the frame.
func (c *ClusterClient) Publish(ns Namespace, n *conduit.Node) error {
	if n == nil {
		return errNilTree
	}
	buf := conduit.GetEncodeBuffer()
	defer conduit.PutEncodeBuffer(buf)
	*buf = n.AppendBinary(*buf)
	leaf, _ := conduit.FirstLeafPath(*buf, nil) // a frame just encoded is valid
	cl, err := c.ownerClient(ns, string(leaf))
	if err != nil {
		return err
	}
	return cl.publish(ns, *buf)
}

// PublishEncoded routes a pre-encoded tree by leafPath — the caller names
// the routing key so the frame never has to be decoded client-side, keeping
// the cached-payload fast path (see Client.PublishEncoded) decode-free.
func (c *ClusterClient) PublishEncoded(ns Namespace, leafPath string, enc []byte) error {
	cl, err := c.ownerClient(ns, leafPath)
	if err != nil {
		return err
	}
	return cl.PublishEncoded(ns, enc)
}

// Flush drains every member connection's batch coalescer, returning the
// first error.
func (c *ClusterClient) Flush() error {
	var first error
	for _, cl := range c.snapshotClients() {
		if err := cl.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Published sums acknowledged publishes across every member connection.
func (c *ClusterClient) Published() int64 {
	var total int64
	for _, cl := range c.snapshotClients() {
		total += cl.Published()
	}
	return total
}

func (c *ClusterClient) snapshotClients() []*Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Client, 0, len(c.clients))
	for _, cl := range c.clients {
		out = append(out, cl)
	}
	return out
}

// Close stops the ring refresher and closes every member connection.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	var first error
	for _, cl := range c.snapshotClients() {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
