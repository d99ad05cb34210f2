package mercury

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/telemetry"
)

// requestFrame spells one request frame as appendRequestHeader writes it.
func requestFrame(id uint64, deadline int64, name string, payload []byte) []byte {
	f := appendRequestHeader(nil, uint32(reqHeaderLen+len(name)+len(payload)), id, telemetry.TraceContext{}, deadline, name)
	return append(f, payload...)
}

// malformedRequests reports whether data, read as a stream of request
// frames, reaches a frame serveConn must refuse — a length outside
// [reqHeaderLen, MaxFrame] or a name running past its frame — before it runs
// out of bytes.
func malformedRequests(data []byte) bool {
	for len(data) >= 4 {
		n := binary.LittleEndian.Uint32(data)
		if n < reqHeaderLen || n > MaxFrame {
			return true
		}
		if uint32(len(data)-4) < n {
			return false // truncated: the server waits for the rest
		}
		body := data[4 : 4+n]
		if reqHeaderLen+int(binary.LittleEndian.Uint16(body[32:34])) > len(body) {
			return true
		}
		data = data[4+n:]
	}
	return false
}

// FuzzServeConn feeds hostile bytes to a server connection: serveConn must
// not panic or hang, must answer what it can, and must close the connection
// by itself on a malformed header.
func FuzzServeConn(f *testing.F) {
	echo := requestFrame(1, 0, "echo", []byte("hi"))
	f.Add(echo)
	f.Add(append(append([]byte(nil), echo...), requestFrame(2, 1, "echo", nil)...)) // expired
	f.Add(requestFrame(3, 0, "nope", []byte("x")))                                  // unknown rpc
	f.Add(binary.LittleEndian.AppendUint32(nil, reqHeaderLen-1))                    // too short
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                           // beyond MaxFrame
	bad := requestFrame(4, 0, "echo", nil)
	binary.LittleEndian.PutUint16(bad[4+32:], 0xffff) // name past the frame
	f.Add(bad)
	f.Add(echo[:len(echo)-1]) // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		e.Register("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
		defer e.Close()
		client, server := net.Pipe()
		defer client.Close()
		served := make(chan struct{})
		e.wg.Add(1)
		go func() {
			e.serveConn(server)
			close(served)
		}()
		go io.Copy(io.Discard, client) // take the responses
		client.Write(data)             // fails early once the server hangs up
		if !malformedRequests(data) {
			client.Close()
		}
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("serveConn still running on %d bytes (malformed %v)", len(data), malformedRequests(data))
		}
	})
}
