package main

// The wire probe: the transport's share of a request, measured apart
// from the server. It replays the traced phase's exchanges, with their
// methods and request and response sizes, at the same offered rate and
// through the same client, against a responder that only reads each
// request and writes a canned response. The round trip to it covers the
// client's encode and parse, the loopback socket both ways and the
// wake-ups on each side, which is what the round trip minus the server's
// time should leave.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// responder answers each request on "/<status>/<bytes>" with that status
// and that many body bytes, after reading the request in full.
type responder struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startResponder() (*responder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &responder{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				serveCanned(c)
			}()
		}
	}()
	return r, nil
}

// close stops accepting and waits for every connection to end; the
// clients must have closed theirs.
func (r *responder) close() {
	r.ln.Close()
	r.wg.Wait()
}

func serveCanned(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 16<<10)
	var out, fill []byte
	for {
		line, err := br.ReadSlice('\n') // "GET /200/64 HTTP/1.1\r\n"
		if err != nil {
			return
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			return
		}
		st, n, ok := parseCanned(f[1])
		if !ok {
			return
		}
		length := 0
		for {
			h, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(h) <= 2 {
				break
			}
			if name, val, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(name, []byte("Content-Length")) {
				if length, ok = parseDec(bytes.TrimSpace(val)); !ok {
					return
				}
			}
		}
		if _, err := br.Discard(length); err != nil {
			return
		}
		out = append(out[:0], "HTTP/1.1 "...)
		out = strconv.AppendInt(out, int64(st), 10)
		out = append(out, " X\r\nContent-Length: "...)
		out = strconv.AppendInt(out, int64(n), 10)
		out = append(out, "\r\n\r\n"...)
		for len(fill) < n {
			fill = append(fill, 'v')
		}
		out = append(out, fill[:n]...)
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

func parseCanned(path []byte) (status, n int, ok bool) {
	path = bytes.TrimPrefix(path, []byte("/"))
	a, b, found := bytes.Cut(path, []byte("/"))
	if !found {
		return 0, 0, false
	}
	if status, ok = parseDec(a); !ok {
		return 0, 0, false
	}
	n, ok = parseDec(b)
	return status, n, ok
}

// probeWire replays up to maxReqs of each client's traced exchanges
// against a responder, open-loop at rate requests per second in all, one
// connection per client as in the traced phase. It returns each probe
// request's round trip in microseconds.
func probeWire(cls []*kvClient, rate float64, maxReqs int) ([]float64, error) {
	r, err := startResponder()
	if err != nil {
		return nil, err
	}
	defer r.close()
	interval := time.Duration(float64(time.Second) / rate)
	rtts := make([][]float64, len(cls))
	start := time.Now()
	var wg sync.WaitGroup
	var failed sync.Once
	var probeErr error
	for g, cl := range cls {
		wg.Add(1)
		go func(g int, spans []reqSpan) {
			defer wg.Done()
			hc := newHTTPConn(r.ln.Addr().String(), nil)
			defer hc.close()
			body := make([]byte, 0, 64<<10)
			var reqBody, path []byte
			for i, sp := range spans[:min(len(spans), maxReqs)] {
				due := time.Duration(i*len(cls)+g) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				for len(reqBody) < sp.reqBytes {
					reqBody = append(reqBody, 'v')
				}
				path = append(path[:0], '/')
				path = strconv.AppendInt(path, int64(sp.status), 10)
				path = append(path, '/')
				path = strconv.AppendInt(path, int64(sp.respBytes), 10)
				t0 := time.Now()
				st, b, err := hc.do(sp.method, path, "", reqBody[:sp.reqBytes], body)
				took := time.Since(t0)
				body = b
				if err != nil || st != sp.status || len(b) != sp.respBytes {
					failed.Do(func() {
						probeErr = fmt.Errorf("wire probe: status %d (want %d), %d body bytes (want %d), error %v",
							st, sp.status, len(b), sp.respBytes, err)
					})
					return
				}
				rtts[g] = append(rtts[g], float64(took)/1e3)
			}
		}(g, cl.spans)
	}
	wg.Wait()
	var all []float64
	for _, x := range rtts {
		all = append(all, x...)
	}
	return all, probeErr
}
