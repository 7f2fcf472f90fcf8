package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// netCounters are the benchmark's own view of a connection set: bytes each
// way and how many connections were ever opened and open at once.
type netCounters struct {
	read, written atomic.Int64
	opened, open  atomic.Int64
	maxOpen       atomic.Int64
}

func (c *netCounters) wrap(conn net.Conn) net.Conn {
	c.opened.Add(1)
	n := c.open.Add(1)
	for {
		m := c.maxOpen.Load()
		if n <= m || c.maxOpen.CompareAndSwap(m, n) {
			break
		}
	}
	return &countingConn{Conn: conn, c: c}
}

type countingConn struct {
	net.Conn
	c    *netCounters
	once sync.Once
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.read.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.written.Add(int64(n))
	return n, err
}

func (cc *countingConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// countingListener counts every connection it accepts.
type countingListener struct {
	net.Listener
	c *netCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.c.wrap(conn), nil
}

// countingClient is an HTTP client whose connections are counted and
// capped at maxConns keep-alive connections.
func countingClient(c *netCounters, maxConns int) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return c.wrap(conn), nil
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}
