package gateway

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
)

// updateJSON renders one pushed update as its text frame, {ns, time,
// alert?, data, dropped_upstream, dropped_ws, dropped} — the bytes
// json.Marshal writes for a struct of those fields, alert omitted when
// false. The three drop counters make loss first-class in the stream
// itself: dropped_upstream is what the service's update log shed past its
// byte budget before this socket's subscription read it, dropped_ws is what
// this socket shed because the browser read too slowly, dropped is their
// sum — a dashboard can render "N updates lost" without a side channel.
func updateJSON(u core.Update, droppedWS int64) []byte {
	dst := conduit.AppendJSONString([]byte(`{"ns":`), string(u.NS))
	dst = conduit.AppendJSONFloat(append(dst, `,"time":`...), u.Time)
	if u.Alert {
		dst = append(dst, `,"alert":true`...)
	}
	dst = u.Tree.AppendJSON(append(dst, `,"data":`...))
	dst = strconv.AppendInt(append(dst, `,"dropped_upstream":`...), u.Dropped, 10)
	dst = strconv.AppendInt(append(dst, `,"dropped_ws":`...), droppedWS, 10)
	dst = strconv.AppendInt(append(dst, `,"dropped":`...), u.Dropped+droppedWS, 10)
	return append(dst, '}')
}

// handleWS upgrades GET /ws?ns=<ns|soma.alerts|empty>&pattern=<glob> and
// bridges one upstream subscription onto the socket. Each socket gets its
// own core.Subscription: a leased cursor on the service's update log with
// exact byte-budget drop accounting, and redial + resubscribe through the
// shared Backoff when somad restarts.
func (g *Gateway) handleWS(w http.ResponseWriter, r *http.Request) {
	ns, err := parseNS(r, true)
	if err != nil {
		g.fail(w, http.StatusBadRequest, err)
		return
	}
	pattern := r.URL.Query().Get("pattern")
	// Subscribe before upgrading: a service that does not serve the update
	// stream should fail as a plain HTTP error the client can read, not a
	// torn socket.
	sub, err := g.client.Subscribe(g.ctx, ns, pattern)
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	conn, err := Accept(w, r)
	if err != nil {
		sub.Close()
		return
	}
	g.wsAccepted.Inc()
	g.wsActive.Inc()
	g.wg.Add(1)
	go g.serveWS(conn, sub)
}

// serveWS runs one socket: a pump goroutine renders updates into a
// bounded queue (dropping, never blocking, when the reader is slow), a
// reader goroutine enforces the liveness lease and answers pings, and the
// writer loop below drains the queue and pings on an interval. The session
// ends when the client goes away, the lease expires, or the gateway
// closes; the upstream subscription is torn down with it.
func (g *Gateway) serveWS(conn *Conn, sub *core.Subscription) {
	defer g.wg.Done()
	defer g.wsActive.Dec()

	send := make(chan []byte, g.sendBuffer)
	var droppedWS atomic.Int64

	// Pump: upstream updates → bounded queue. The non-blocking send is the
	// drop-don't-block rule at the gateway tier: one stalled browser sheds
	// its own updates instead of stalling the subscription (and with it the
	// upstream long-poll lease).
	go func() {
		for u := range sub.C {
			msg := updateJSON(u, droppedWS.Load())
			select {
			case send <- msg:
			default:
				droppedWS.Add(1)
				g.wsDropped.Inc()
			}
		}
	}()

	// Reader: the socket's lease. Every received frame renews the read
	// deadline; a client that answers neither data nor pings for
	// PingInterval+PongTimeout expires and is reaped.
	readerGone := make(chan struct{})
	go func() {
		defer close(readerGone)
		for {
			conn.SetReadDeadline(time.Now().Add(g.pingInterval + g.pongTimeout))
			op, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			switch op {
			case OpPing:
				conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if conn.WriteMessage(OpPong, payload) != nil {
					return
				}
			case OpClose:
				return
			}
			// Pongs and client data frames need no reply; reading them
			// already renewed the lease.
		}
	}()

	ping := time.NewTicker(g.pingInterval)
	defer ping.Stop()
	defer conn.Close()
	defer sub.Close()
	for {
		select {
		case msg := <-send:
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := conn.WriteMessage(OpText, msg); err != nil {
				return
			}
			g.wsMessages.Inc()
		case <-ping.C:
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if err := conn.WriteMessage(OpPing, nil); err != nil {
				return
			}
		case <-readerGone:
			return
		case <-g.ctx.Done():
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			conn.WriteClose(CloseGoingAway, "gateway shutting down")
			return
		}
	}
}
