package main

import (
	"repro/internal/memalloc"
	"repro/internal/serve"
)

// tracedAlloc times every Alloc and Free of the allocator it wraps and
// attributes them to layer l (core or caching). The program sees an
// ordinary memalloc.Allocator.
type tracedAlloc struct {
	memalloc.Allocator
	t *tracer
	l layer
}

func (a *tracedAlloc) Alloc(size int64) (*memalloc.Buffer, error) {
	a.t.enter(a.l)
	b, err := a.Allocator.Alloc(size)
	a.t.leave(a.l, opAlloc, err)
	return b, err
}

func (a *tracedAlloc) Free(b *memalloc.Buffer) {
	a.t.enter(a.l)
	a.Allocator.Free(b)
	a.t.leave(a.l, opFree, nil)
}

// tracedKV times Admit, Append and Release of one replica's KV manager and
// keeps the host-time lifetime of each admitted request.
type tracedKV struct {
	serve.CacheManager
	t       *tracer
	replica int
	open    map[serve.SeqHandle]reqSpan
}

func newTracedKV(m serve.CacheManager, t *tracer, replica int) *tracedKV {
	return &tracedKV{CacheManager: m, t: t, replica: replica, open: map[serve.SeqHandle]reqSpan{}}
}

func (k *tracedKV) Admit(r serve.Request) (serve.SeqHandle, error) {
	start := k.t.now()
	k.t.enter(layerKV)
	h, err := k.CacheManager.Admit(r)
	k.t.leave(layerKV, opAdmit, err)
	if err == nil {
		k.open[h] = reqSpan{id: r.ID, replica: k.replica, start: start}
	}
	return h, err
}

func (k *tracedKV) Append(h serve.SeqHandle) error {
	k.t.enter(layerKV)
	err := k.CacheManager.Append(h)
	k.t.leave(layerKV, opAppend, err)
	return err
}

func (k *tracedKV) Release(h serve.SeqHandle) {
	k.t.enter(layerKV)
	k.CacheManager.Release(h)
	k.t.leave(layerKV, opRelease, nil)
	if rs, ok := k.open[h]; ok {
		delete(k.open, h)
		if len(k.t.reqs) < maxReqSpans {
			rs.end = k.t.now()
			k.t.reqs = append(k.t.reqs, rs)
		}
	}
}
