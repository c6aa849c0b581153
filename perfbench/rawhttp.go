package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// httpConn is a minimal HTTP/1.1 keep-alive client connection: one
// request at a time, reusable buffers, no allocation per request. The
// load shares its process with the servers, so the client's own garbage
// and CPU must stay small next to the server's; net/http's client costs
// several times the server's allocations per request.
type httpConn struct {
	dial  func(ctx context.Context, network, addr string) (net.Conn, error)
	addr  string // host:port
	conn  net.Conn
	br    *bufio.Reader
	wbuf  []byte
	local string // local address of the current connection
}

func newHTTPConn(addr string, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *httpConn {
	if dial == nil {
		dial = (&net.Dialer{}).DialContext
	}
	return &httpConn{dial: dial, addr: addr, wbuf: make([]byte, 0, 4096)}
}

func (h *httpConn) close() {
	if h.conn != nil {
		h.conn.Close()
		h.conn = nil
	}
}

var errMalformed = errors.New("malformed HTTP response")

// do sends one request and appends the response body to body[:0]. Any
// error closes the connection; the next request dials again.
func (h *httpConn) do(method string, path []byte, ctype string, reqBody, body []byte) (int, []byte, error) {
	if h.conn == nil {
		c, err := h.dial(context.Background(), "tcp", h.addr)
		if err != nil {
			return 0, body, err
		}
		h.conn, h.local = c, c.LocalAddr().String()
		if h.br == nil {
			h.br = bufio.NewReaderSize(c, 16<<10)
		} else {
			h.br.Reset(c)
		}
	}
	w := h.wbuf[:0]
	w = append(w, method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, h.addr...)
	w = append(w, "\r\nContent-Length: "...)
	w = strconv.AppendInt(w, int64(len(reqBody)), 10)
	if ctype != "" {
		w = append(w, "\r\nContent-Type: "...)
		w = append(w, ctype...)
	}
	w = append(w, "\r\n\r\n"...)
	w = append(w, reqBody...)
	h.wbuf = w
	if _, err := h.conn.Write(w); err != nil {
		h.close()
		return 0, body, err
	}
	status, out, err := h.readResponse(body[:0])
	if err != nil {
		h.close()
	}
	return status, out, err
}

func (h *httpConn) readResponse(body []byte) (int, []byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, body, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, body, errMalformed
	}
	status, ok := parseDec(line[9:12])
	if !ok {
		return 0, body, errMalformed
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, body, err
		}
		if len(line) <= 2 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, body, errMalformed
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = parseDec(val); !ok {
				return 0, body, errMalformed
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		}
	}
	switch {
	case chunked:
		body, err = h.readChunked(body)
	case length > 0:
		body, err = readN(h.br, body, length)
	case length < 0 && status != 204 && status != 304:
		return 0, body, fmt.Errorf("response without length: %w", errMalformed)
	}
	if err == nil && closing {
		h.close()
	}
	return status, body, err
}

func (h *httpConn) readChunked(body []byte) ([]byte, error) {
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return body, err
		}
		line = bytes.TrimSpace(line)
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseUint(string(line), 16, 31)
		if err != nil {
			return body, errMalformed
		}
		if n == 0 {
			// Trailer section: lines until the empty one.
			for {
				t, err := h.br.ReadSlice('\n')
				if err != nil {
					return body, err
				}
				if len(t) <= 2 {
					return body, nil
				}
			}
		}
		if body, err = readN(h.br, body, int(n)); err != nil {
			return body, err
		}
		if _, err := h.br.Discard(2); err != nil {
			return body, err
		}
	}
}

// parseDec parses a non-negative decimal number.
func parseDec(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// readN appends exactly n bytes from r to dst.
func readN(r io.Reader, dst []byte, n int) ([]byte, error) {
	start := len(dst)
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+n]
	_, err := io.ReadFull(r, dst[start:])
	return dst, err
}
