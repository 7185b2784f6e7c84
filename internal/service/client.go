package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/obs"
	"subtrav/internal/xrand"
)

// ErrRejected marks a reply with CodeRejected: the server's admission
// control refused the query under load. Retryable; see DoRetry.
var ErrRejected = errors.New("service: rejected (queue full)")

// ErrDeadline marks a reply with CodeDeadline: the query's deadline
// expired server-side and the traversal was cancelled.
var ErrDeadline = errors.New("service: deadline exceeded")

// Client is a pipelined TCP client: multiple goroutines may call Do
// concurrently; requests share one connection and responses are
// matched by ID.
type Client struct {
	conn net.Conn

	// wmu serializes request frames onto the connection; wbuf holds
	// the frame being written.
	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]chan Reply
	// free holds reply channels of finished calls, for reuse.
	free   []chan Reply
	nextID uint64
	err    error // terminal connection error
	closed bool

	retries atomic.Int64
	jitter  atomic.Uint64
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan Reply),
	}
	go c.readLoop()
	return c, nil
}

// readLoop decodes replies and hands each to the call waiting for it,
// until the connection fails.
func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	var buf []byte
	for {
		p, err := readFrame(r, buf, maxReplyFrame)
		var reply Reply
		if err == nil {
			buf = p
			reply, err = decodeReply(p)
		}
		if err != nil {
			c.fail(fmt.Errorf("service: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reply.ID]
		if ok {
			delete(c.pending, reply.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- reply
		}
	}
}

// fail terminates every pending call with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan Reply)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Stats fetches runtime statistics from the server.
func (c *Client) Stats() (Reply, error) {
	return c.roundTrip(Request{Kind: KindStats})
}

// Trace fetches up to n of the server's most recent trace spans
// (oldest first). The result is empty when the server runs with
// tracing disabled.
func (c *Client) Trace(n int) ([]obs.Span, error) {
	reply, err := c.roundTrip(Request{Kind: KindTrace, TraceN: n})
	if err != nil {
		return nil, err
	}
	return reply.Spans, nil
}

// Do sends one query and waits for its reply. Server-side execution
// errors come back inside the Reply's Err field as a non-nil error.
func (c *Client) Do(q WireQuery) (Reply, error) {
	return c.DoTimeout(q, 0)
}

// DoTimeout is Do with a server-side deadline: the server cancels the
// query if it has not finished within timeout (0 = no deadline). A
// deadline miss returns an error matching errors.Is(err, ErrDeadline).
func (c *Client) DoTimeout(q WireQuery, timeout time.Duration) (Reply, error) {
	return c.roundTrip(Request{Kind: KindQuery, Query: q, TimeoutNanos: timeout.Nanoseconds()})
}

// RetryPolicy tunes DoRetry's jittered exponential backoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k waits a
	// uniform random duration in (0, BaseDelay·2^k], never less than
	// the server's retry-after hint (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff pause (default 100ms).
	MaxDelay time.Duration
	// Seed fixes the jitter sequence for deterministic tests; 0 draws
	// a per-call seed from the client.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// DoRetry sends a query with a server-side timeout, retrying with
// jittered exponential backoff while the server rejects it under
// backpressure (ErrRejected). Other failures — execution errors,
// deadline misses, transport loss — return immediately. timeout 0
// means no per-attempt deadline.
func (c *Client) DoRetry(q WireQuery, timeout time.Duration, policy RetryPolicy) (Reply, error) {
	policy = policy.withDefaults()
	seed := policy.Seed
	if seed == 0 {
		seed = c.jitter.Add(0x9e3779b97f4a7c15)
	}
	rng := xrand.New(seed)
	var (
		reply Reply
		err   error
	)
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		reply, err = c.DoTimeout(q, timeout)
		if err == nil || !errors.Is(err, ErrRejected) {
			return reply, err
		}
		if attempt == policy.MaxAttempts-1 {
			break
		}
		c.retries.Add(1)
		ceil := policy.BaseDelay << uint(attempt)
		if ceil > policy.MaxDelay {
			ceil = policy.MaxDelay
		}
		delay := time.Duration(rng.Float64() * float64(ceil))
		if hint := time.Duration(reply.RetryAfterNanos); delay < hint {
			delay = hint
		}
		time.Sleep(delay)
	}
	return reply, err
}

// Retries returns how many backoff retries this client has performed
// across all DoRetry calls.
func (c *Client) Retries() int64 { return c.retries.Load() }

func (c *Client) roundTrip(req Request) (Reply, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Reply{}, err
	}
	if c.closed {
		c.mu.Unlock()
		return Reply{}, errors.New("service: client closed")
	}
	id := c.nextID
	c.nextID++
	var ch chan Reply
	if n := len(c.free); n > 0 {
		ch, c.free = c.free[n-1], c.free[:n-1]
	} else {
		ch = make(chan Reply, 1)
	}
	c.pending[id] = ch
	c.mu.Unlock()

	req.ID = id
	c.wmu.Lock()
	frame, err := appendRequest(c.wbuf[:0], &req)
	if err == nil {
		c.wbuf = frame
		if _, err = c.conn.Write(frame); err != nil {
			err = fmt.Errorf("service: send: %w", err)
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		// A channel fail took has been closed; only one still pending
		// may be reused.
		if _, ok := c.pending[id]; ok {
			delete(c.pending, id)
			c.free = append(c.free, ch)
		}
		c.mu.Unlock()
		return Reply{}, err
	}

	reply, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("service: connection closed")
		}
		return Reply{}, err
	}
	c.mu.Lock()
	c.free = append(c.free, ch)
	c.mu.Unlock()
	switch reply.Code {
	case CodeRejected:
		return reply, fmt.Errorf("service: remote: %s: %w", reply.Err, ErrRejected)
	case CodeDeadline:
		return reply, fmt.Errorf("service: remote: %s: %w", reply.Err, ErrDeadline)
	}
	if reply.Err != "" {
		return reply, fmt.Errorf("service: remote: %s", reply.Err)
	}
	return reply, nil
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(errors.New("service: client closed"))
	return err
}
