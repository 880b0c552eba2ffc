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

func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	cl := c.HTTP
	if cl == nil {
		cl = http.DefaultClient
	}
	r, err := cl.Post(strings.TrimRight(c.BaseURL, "/")+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		var eb errorBody
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &StatusError{Code: r.StatusCode, Msg: msg}
	}
	return json.Unmarshal(data, resp)
}

// Analyze runs one POST /analyze round trip.
func (c *Client) Analyze(req AnalyzeRequest) (*AnalyzeResponse, error) {
	var resp AnalyzeResponse
	if err := c.post("/analyze", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Check runs one POST /check round trip.
func (c *Client) Check(req CheckRequest) (*CheckResponse, error) {
	var resp CheckResponse
	if err := c.post("/check", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches GET /stats.
func (c *Client) Stats() (*StatsResponse, error) {
	cl := c.HTTP
	if cl == nil {
		cl = http.DefaultClient
	}
	r, err := cl.Get(strings.TrimRight(c.BaseURL, "/") + "/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: r.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	var resp StatsResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
