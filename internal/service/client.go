package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a minimal client for a shaped daemon; the CLIs' -remote
// modes use it so the wire types stay defined in one place.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7411".
	BaseURL string
	// HTTP overrides the transport; nil uses http.DefaultClient. The
	// daemon enforces the analysis timeout server-side, so the default
	// client's lack of one is fine for interactive use.
	HTTP *http.Client
}

// StatusError is a non-2xx daemon response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shaped: HTTP %d: %s", e.Code, e.Msg)
}

// roundTrip runs one request and decodes a 200 answer into a T: a GET
// of path when req is nil, a JSON POST of req otherwise. Any other
// status is a StatusError carrying the body's error message, or the raw
// body when it has none.
func roundTrip[T any](c *Client, path string, req any) (*T, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		method, body = http.MethodPost, bytes.NewReader(data)
	}
	hr, err := http.NewRequest(method, strings.TrimRight(c.BaseURL, "/")+path, body)
	if err != nil {
		return nil, err
	}
	if req != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	cl := c.HTTP
	if cl == nil {
		cl = http.DefaultClient
	}
	r, err := cl.Do(hr)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		var eb errorBody
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, &StatusError{Code: r.StatusCode, Msg: msg}
	}
	resp := new(T)
	if err := json.Unmarshal(data, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Analyze runs one POST /analyze round trip.
func (c *Client) Analyze(req AnalyzeRequest) (*AnalyzeResponse, error) {
	return roundTrip[AnalyzeResponse](c, "/analyze", req)
}

// Check runs one POST /check round trip.
func (c *Client) Check(req CheckRequest) (*CheckResponse, error) {
	return roundTrip[CheckResponse](c, "/check", req)
}

// Stats fetches GET /stats.
func (c *Client) Stats() (*StatsResponse, error) {
	return roundTrip[StatsResponse](c, "/stats", nil)
}
