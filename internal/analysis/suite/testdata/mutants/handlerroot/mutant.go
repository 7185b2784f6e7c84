// Package handlerroot submits a request's query under a fresh root
// context: the caller's deadline and cancellation never reach it, so
// a query whose client gave up keeps running.
package handlerroot

import "context"

type runtime struct{}

func (runtime) Submit(ctx context.Context, start int) error { return ctx.Err() }

type server struct{ rt runtime }

func (s *server) handle(ctx context.Context, start int) error {
	return s.rt.Submit(context.Background(), start)
}
