package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// LoopbackNet is an in-process, socketless transport: Listen registers a
// named endpoint, Dial pairs with a pending Accept through net.Pipe. The
// full wire protocol — framing, handshake, deadlines, cancellation — runs
// unchanged over it, so equivalence and failure-mode tests are
// deterministic and need no real sockets, ports or firewall dispensation.
// One LoopbackNet is one namespace; addresses are arbitrary strings.
type LoopbackNet struct {
	mu        sync.Mutex
	listeners map[string]*loopbackListener
}

// NewLoopbackNet returns an empty loopback namespace. Production dials TCP;
// it stays exported for the tests of other packages that run shard servers
// in memory.
func NewLoopbackNet() *LoopbackNet {
	return &LoopbackNet{listeners: make(map[string]*loopbackListener)}
}

// Listen registers addr and returns its listener. An address can be
// listened on once at a time.
func (ln *LoopbackNet) Listen(addr string) (net.Listener, error) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if _, ok := ln.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: loopback address %q already in use", addr)
	}
	l := &loopbackListener{
		net:  ln,
		addr: loopbackAddr(addr),
		ch:   make(chan net.Conn),
		done: make(chan struct{}),
	}
	ln.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening loopback address; it is a DialFunc.
func (ln *LoopbackNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	ln.mu.Lock()
	l := ln.listeners[addr]
	ln.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: loopback address %q refused (no listener)", addr)
	}
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("transport: loopback address %q refused (listener closed)", addr)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

type loopbackListener struct {
	net  *LoopbackNet
	addr loopbackAddr
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *loopbackListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *loopbackListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[string(l.addr)] == l {
			delete(l.net.listeners, string(l.addr))
		}
		l.net.mu.Unlock()
	})
	return nil
}

func (l *loopbackListener) Addr() net.Addr { return l.addr }

type loopbackAddr string

// Network implements net.Addr.
func (a loopbackAddr) Network() string { return "loopback" }
func (a loopbackAddr) String() string  { return string(a) }
