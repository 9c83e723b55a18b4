package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// call is one HTTP exchange with the service: the response and its body,
// read to the end so the handler (and its root span) has finished.
func call(c *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp, b, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return resp, b, nil
}

// tracedCall is call recorded as an "http:<method> <path>" span of t; the
// service's own span tree for the request is grafted under it when the op
// finishes (see graftTraces).
func tracedCall(svc *service, t *opTrace, method, path string, body []byte) (*http.Response, []byte, error) {
	start := t.now()
	resp, b, err := call(svc.Client, method, svc.URL+path, body)
	id := t.span("http:"+method+" "+routeOf(path), start)
	if resp != nil {
		t.graftLater(resp.Header.Get("X-Spacx-Trace"), id)
	}
	return resp, b, err
}

// routeOf names a request path by its route, so job ids do not make every
// span name distinct.
func routeOf(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		if strings.HasSuffix(rest, "/events") {
			return "/v1/jobs/{id}/events"
		}
		return "/v1/jobs/{id}"
	}
	return path
}

// followEvents reads a job's SSE stream to its terminal event and then to
// the end of the stream, returning the terminal event's name.
func followEvents(svc *service, t *opTrace, id string) (string, int, error) {
	path := "/v1/jobs/" + id + "/events"
	start := t.now()
	req, err := http.NewRequest(http.MethodGet, svc.URL+path, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := svc.Client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	terminal, n := "", 0
	for {
		line, err := r.ReadString('\n')
		n += len(line)
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			switch name = strings.TrimSpace(name); name {
			case "done", "failed", "cancelled":
				terminal = name
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", n, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	t.graftLater(resp.Header.Get("X-Spacx-Trace"), t.span("http:GET "+routeOf(path), start))
	if terminal == "" {
		return "", n, fmt.Errorf("GET %s: stream ended without a terminal event", path)
	}
	return terminal, n, nil
}
