package main

import (
	"bytes"
	"errors"
	"strconv"
)

// outcome classifies one finished request.  Every non-ok outcome is a
// failure in error accounting; none is dropped.
type outcome uint8

const (
	ok        outcome = iota
	badStatus         // non-2xx status
	badBody           // 2xx with a body that is not the correct answer
	ioError           // connection error before the response completed
	timedOut          // no complete response within the timeout
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "bad_status", "bad_body", "io_error", "timeout"}

// check validates a response to req: 2xx, and a body that is exactly
// the right answer.  /echo must return the message; /compute must match
// the client-side xorshift reference; /work/mlalloc must report cells=n
// and fold=n*seed+n(n-1)/2 (its sum= mixes in shared server state, so
// it cannot be checked).
func check(req *request, status int, body []byte) outcome {
	if status < 200 || status > 299 {
		return badStatus
	}
	if req.kind == kindMLAlloc {
		if checkMLAlloc(req.n, req.seed, body) {
			return ok
		}
		return badBody
	}
	if !bytes.Equal(body, req.want) {
		return badBody
	}
	return ok
}

// checkMLAlloc parses "mlalloc n=N cells=C sum=S fold=F gcs=G\n".
func checkMLAlloc(n, seed int64, body []byte) bool {
	gotN, ok1 := field(body, "n=")
	cells, ok2 := field(body, "cells=")
	fold, ok3 := field(body, "fold=")
	if !ok1 || !ok2 || !ok3 || !bytes.HasPrefix(body, []byte("mlalloc ")) {
		return false
	}
	return gotN == n && cells == n && fold == n*seed+n*(n-1)/2
}

// field returns the integer following " name" in body.
func field(body []byte, name string) (int64, bool) {
	i := bytes.Index(body, []byte(" "+name))
	if i < 0 {
		return 0, false
	}
	rest := body[i+1+len(name):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

var errMalformed = errors.New("malformed response")

// parseResponse parses one HTTP/1.1 response with a Content-Length from
// the front of buf.  It returns the status, the body (aliasing buf) and
// the bytes consumed; consumed is 0 when the response is not complete.
func parseResponse(buf []byte) (status int, body []byte, consumed int, err error) {
	end := bytes.Index(buf, []byte("\r\n\r\n"))
	if end < 0 {
		return 0, nil, 0, nil
	}
	head := buf[:end]
	line, rest, _ := bytes.Cut(head, []byte("\r\n"))
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, 0, errMalformed
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, 0, errMalformed
	}
	clen := -1
	for len(rest) > 0 {
		var h []byte
		h, rest, _ = bytes.Cut(rest, []byte("\r\n"))
		k, v, found := bytes.Cut(h, []byte(":"))
		if found && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			clen, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil || clen < 0 {
				return 0, nil, 0, errMalformed
			}
		}
	}
	if clen < 0 {
		return 0, nil, 0, errMalformed
	}
	total := end + 4 + clen
	if len(buf) < total {
		return 0, nil, 0, nil
	}
	return status, buf[end+4 : total], total, nil
}
