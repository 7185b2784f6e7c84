package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/live"
	"subtrav/internal/traverse"
)

// Server serves traversal queries from a live runtime over TCP.
//
// Each connection has one reader goroutine, which decodes requests and
// submits queries, and one writer goroutine, which writes the replies
// the connection owes. No goroutine runs per request: the goroutine
// that resolves a query appends its reply to the connection's buffer
// and never waits on the socket. A connection's context is the parent
// of its queries' contexts, so a connection that ends, however it ends,
// cancels the queries it still has in flight.
type Server struct {
	rt *live.Runtime
	// ctx is the parent of every connection's context; Close cancels
	// it.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	// wg counts the accept loop and every connection's reader and
	// writer.
	wg sync.WaitGroup
}

// NewServer wraps a runtime. The caller retains ownership of the
// runtime (Close the server first, then the runtime).
func NewServer(rt *live.Runtime) (*Server, error) {
	if rt == nil {
		return nil, fmt.Errorf("service: runtime is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{rt: rt, ctx: ctx, cancel: cancel}, nil
}

// Listen starts accepting on addr (e.g. "127.0.0.1:7070"; port 0 picks
// a free port) and returns the bound address. Serving happens on
// background goroutines; call Close to stop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("service: server closed")
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()

	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.wg.Add(2)
		s.mu.Unlock()
		c := &conn{s: s, nc: nc, wake: make(chan struct{}, 1)}
		c.ctx, c.cancel = context.WithCancel(s.ctx)
		// Whatever ends the connection closes its socket, which is what
		// unblocks a reader waiting for a request and a writer stuck
		// on a peer that does not read.
		context.AfterFunc(c.ctx, func() { nc.Close() })
		go c.read()
		go c.write()
	}
}

// Close stops the listener, ends every connection — cancelling the
// queries they have in flight, whose replies are dropped — and waits
// for the connections' goroutines to exit. The runtime is not closed.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// conn is one client connection.
type conn struct {
	s      *Server
	nc     net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards out and closed. out holds the encoded replies the
	// writer has not yet taken.
	mu     sync.Mutex
	out    []byte
	closed bool
	// wake tells the writer out has become non-empty.
	wake chan struct{}
}

// read decodes the connection's requests and serves each one. A frame
// that does not decode ends the connection.
func (c *conn) read() {
	defer c.s.wg.Done()
	defer c.shut()
	r := bufio.NewReader(c.nc)
	var buf []byte
	for {
		p, err := readFrame(r, buf, maxRequestFrame)
		if err != nil {
			return
		}
		buf = p
		req, err := decodeRequest(p)
		if err != nil {
			return
		}
		c.serve(&req)
	}
}

// write hands what the connection owes to the socket, all of it in one
// write, until the connection ends.
func (c *conn) write() {
	defer c.s.wg.Done()
	defer c.shut()
	var buf []byte
	for {
		select {
		case <-c.wake:
		case <-c.ctx.Done():
			return
		}
		c.mu.Lock()
		buf, c.out = c.out, buf[:0]
		c.mu.Unlock()
		if _, err := c.nc.Write(buf); err != nil {
			return
		}
		if cap(buf) > maxRequestFrame {
			buf = nil // a large diagnostics reply does not pin its buffer
		}
	}
}

// shut ends the connection: the replies it still owes are dropped, and
// its context ends, which cancels its queries and closes its socket.
func (c *conn) shut() {
	c.mu.Lock()
	c.closed, c.out = true, nil
	c.mu.Unlock()
	c.cancel()
}

// send appends a reply (see appendReply) to what the connection owes
// and wakes the writer. It never blocks on the socket: a connection
// that already owes maxBacklog bytes is shut instead, and a reply over
// the frame cap is replaced by an error.
func (c *conn) send(h replyHead, resp *live.Response, diag []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	n0 := len(c.out)
	if n0 >= maxBacklog {
		c.mu.Unlock()
		c.shut()
		return
	}
	c.out = appendReply(c.out, h, resp, diag)
	if len(c.out)-n0-4 > maxReplyFrame {
		c.out = appendReply(c.out[:n0], replyHead{ID: h.ID, Code: CodeError, Err: "service: reply over the frame cap"}, nil, nil)
	}
	c.mu.Unlock()
	if n0 == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// serve answers a diagnostics request at once and submits a query.
func (c *conn) serve(req *Request) {
	switch req.Kind {
	case KindStats:
		rt := c.s.rt
		c.sendDiag(req.ID, diagnostics{TotalCompleted: rt.Completed(), Counters: rt.Metrics(), Units: rt.Stats()})
		return
	case KindTrace:
		c.sendDiag(req.ID, diagnostics{Spans: c.s.rt.Trace(req.TraceN)})
		return
	}
	id := req.ID
	q, err := req.Query.ToQuery()
	if err != nil {
		c.send(replyHead{ID: id, Code: CodeError, Err: err.Error()}, nil, nil)
		return
	}
	if req.TimeoutNanos > 0 {
		c.submitBy(id, time.Duration(req.TimeoutNanos), req.Query.Tenant, q)
		return
	}
	if err := c.s.rt.SubmitTenantFunc(c.ctx, req.Query.Tenant, q, func(resp live.Response) { c.reply(id, &resp) }); err != nil {
		c.refuse(id, err)
	}
}

// submitBy submits a query that must be answered within timeout.
// Whichever comes first claims the reply: the runtime resolving the
// query, or its deadline, which answers CodeDeadline at once; the
// runtime still resolves (and counts) the query when it reaches it.
func (c *conn) submitBy(id uint64, timeout time.Duration, tenant string, q traverse.Query) {
	ctx, cancel := context.WithTimeout(c.ctx, timeout)
	var claimed atomic.Bool
	stop := context.AfterFunc(ctx, func() {
		if claimed.CompareAndSwap(false, true) {
			c.send(replyHead{ID: id, Code: CodeDeadline, Err: ctx.Err().Error()}, nil, nil)
		}
	})
	err := c.s.rt.SubmitTenantFunc(ctx, tenant, q, func(resp live.Response) {
		stop()
		cancel()
		if claimed.CompareAndSwap(false, true) {
			c.reply(id, &resp)
		}
	})
	if err != nil {
		stop()
		cancel()
		if claimed.CompareAndSwap(false, true) {
			c.refuse(id, err)
		}
	}
}

// reply answers a query the runtime resolved.
func (c *conn) reply(id uint64, resp *live.Response) {
	switch {
	case resp.Err == nil:
		c.send(replyHead{ID: id}, resp, nil)
	case errors.Is(resp.Err, context.DeadlineExceeded) || errors.Is(resp.Err, context.Canceled):
		c.send(replyHead{ID: id, Code: CodeDeadline, Err: resp.Err.Error()}, nil, nil)
	default:
		c.send(replyHead{ID: id, Code: CodeError, Err: resp.Err.Error()}, nil, nil)
	}
}

// refuse answers a query the runtime did not admit.
func (c *conn) refuse(id uint64, err error) {
	h := replyHead{ID: id, Code: CodeError, Err: err.Error()}
	var rej *live.RejectedError
	if errors.As(err, &rej) {
		h.Code, h.RetryAfterNanos = CodeRejected, rej.RetryAfter.Nanoseconds()
	}
	c.send(h, nil, nil)
}

// sendDiag answers a diagnostics request with body as JSON.
func (c *conn) sendDiag(id uint64, body diagnostics) {
	diag, err := json.Marshal(body)
	if err != nil {
		c.send(replyHead{ID: id, Code: CodeError, Err: fmt.Sprintf("service: diagnostics: %v", err)}, nil, nil)
		return
	}
	c.send(replyHead{ID: id}, nil, diag)
}
