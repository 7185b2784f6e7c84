package service

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"subtrav/internal/live"
)

// Server serves traversal queries from a live runtime over TCP.
type Server struct {
	rt *live.Runtime

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a runtime. The caller retains ownership of the
// runtime (Close the server first, then the runtime).
func NewServer(rt *live.Runtime) (*Server, error) {
	if rt == nil {
		return nil, fmt.Errorf("service: runtime is required")
	}
	return &Server{rt: rt, conns: make(map[net.Conn]struct{})}, nil
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
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn decodes a stream of Requests, executes each on the
// runtime, and writes Replies as they finish (responses may be out of
// order; the client matches by ID).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex
	var inflight sync.WaitGroup
	defer inflight.Wait()

	send := func(r Reply) {
		encMu.Lock()
		defer encMu.Unlock()
		// Encode errors mean the connection is gone; the deferred
		// close handles cleanup.
		_ = enc.Encode(r)
	}

	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if err != io.EOF {
				// Malformed stream: drop the connection.
				_ = err
			}
			return
		}
		if req.Kind == KindStats {
			send(Reply{
				ID:             req.ID,
				TotalCompleted: s.rt.Completed(),
				Counters:       s.rt.Metrics(),
				Units:          s.rt.Stats(),
			})
			continue
		}
		if req.Kind == KindTrace {
			send(Reply{ID: req.ID, Spans: s.rt.Trace(req.TraceN)})
			continue
		}
		query, err := req.Query.ToQuery()
		if err != nil {
			send(Reply{ID: req.ID, Code: CodeError, Err: err.Error()})
			continue
		}
		ctx := context.Background()
		var cancel context.CancelFunc
		if req.TimeoutNanos > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNanos))
		}
		ch, err := s.rt.SubmitTenantCtx(ctx, req.Query.Tenant, query)
		if err != nil {
			if cancel != nil {
				cancel()
			}
			var rej *live.RejectedError
			if errors.As(err, &rej) {
				send(Reply{
					ID: req.ID, Code: CodeRejected, Err: err.Error(),
					RetryAfterNanos: rej.RetryAfter.Nanoseconds(),
				})
				continue
			}
			send(Reply{ID: req.ID, Code: CodeError, Err: err.Error()})
			continue
		}
		inflight.Add(1)
		go func(id uint64, ch <-chan live.Response, ctx context.Context, cancel context.CancelFunc) {
			defer inflight.Done()
			if cancel != nil {
				defer cancel()
			}
			var resp live.Response
			select {
			case resp = <-ch:
			case <-ctx.Done():
				// Deadline hit while the query is queued or executing:
				// answer the client now; the runtime resolves (and
				// counts) the abandoned query when it reaches it.
				send(Reply{ID: id, Code: CodeDeadline, Err: ctx.Err().Error()})
				return
			}
			switch {
			case resp.Err == nil:
				send(replyFrom(id, resp.Result, resp.Unit, resp.Wait.Nanoseconds(), resp.Exec.Nanoseconds()))
			case errors.Is(resp.Err, context.DeadlineExceeded) || errors.Is(resp.Err, context.Canceled):
				send(Reply{ID: id, Code: CodeDeadline, Err: resp.Err.Error()})
			default:
				send(Reply{ID: id, Code: CodeError, Err: resp.Err.Error()})
			}
		}(req.ID, ch, ctx, cancel)
	}
}

// Close stops the listener and all connections and waits for handlers
// to finish. The runtime is not closed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
