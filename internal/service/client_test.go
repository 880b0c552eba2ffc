package service_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// TestClientErrorMessage checks that every client call reports a
// non-200 answer as a StatusError carrying the body's error message,
// not the raw JSON body.
func TestClientErrorMessage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"x"}`))
	}))
	defer srv.Close()
	c := &service.Client{BaseURL: srv.URL}
	calls := map[string]func() error{
		"Stats":   func() error { _, err := c.Stats(); return err },
		"Analyze": func() error { _, err := c.Analyze(service.AnalyzeRequest{}); return err },
		"Check":   func() error { _, err := c.Check(service.CheckRequest{}); return err },
	}
	for name, call := range calls {
		var se *service.StatusError
		if err := call(); !errors.As(err, &se) {
			t.Errorf("%s: error %v, want a StatusError", name, err)
		} else if se.Code != http.StatusInternalServerError || se.Msg != "x" {
			t.Errorf("%s: StatusError{%d, %q}, want {500, \"x\"}", name, se.Code, se.Msg)
		}
	}
}
