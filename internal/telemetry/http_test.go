package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get serves one GET of path through h and returns the recorded response.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestHandlerRoutes: every route serves what it names, in its content
// type, from the snapshots and the recorder it was given.
func TestHandlerRoutes(t *testing.T) {
	a, b := NewRegistry("a"), NewRegistry("b")
	a.Counter("rx").Add(5)
	b.Histogram("lat").Observe(1200)
	fr := NewFlightRecorder(4, 2)
	fr.Record(span(7, 900))
	h := NewHandler(func() []*Snapshot { return []*Snapshot{a.Snapshot(), b.Snapshot()} }, fr)

	w := get(h, "/metrics")
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics: %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	for _, line := range []string{
		"# TYPE demikernel_rx counter", `demikernel_rx{registry="a"} 5`,
		"# TYPE demikernel_lat histogram", `demikernel_lat_count{registry="b"} 1`,
	} {
		if !strings.Contains(w.Body.String(), line+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", line, w.Body)
		}
	}

	w = get(h, "/metrics.json")
	var snaps []struct {
		Name     string `json:"name"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Hists []struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("/metrics.json content type %q", w.Header().Get("Content-Type"))
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snaps); err != nil {
		t.Fatalf("/metrics.json: %v\n%s", err, w.Body)
	}
	if len(snaps) != 2 || snaps[0].Name != "a" || len(snaps[0].Counters) != 1 || snaps[0].Counters[0].Value != 5 ||
		snaps[1].Name != "b" || len(snaps[1].Hists) != 1 || snaps[1].Hists[0].Count != 1 {
		t.Errorf("/metrics.json = %+v", snaps)
	}

	w = get(h, "/flight")
	if w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "flight recorder: 1 spans recorded, 1 retained") {
		t.Errorf("/flight: %d\n%s", w.Code, w.Body)
	}
	w = get(h, "/flight.json")
	var flight struct {
		Total  uint64 `json:"total_spans"`
		Recent []struct {
			Token uint64 `json:"token"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &flight); err != nil {
		t.Fatalf("/flight.json: %v\n%s", err, w.Body)
	}
	if flight.Total != 1 || len(flight.Recent) != 1 || flight.Recent[0].Token != 7 {
		t.Errorf("/flight.json = %+v", flight)
	}
}

// TestHandlerWithoutFlightRecorder: with no recorder attached, the flight
// routes answer 404 and the metric routes still serve.
func TestHandlerWithoutFlightRecorder(t *testing.T) {
	h := NewHandler(func() []*Snapshot { return nil }, nil)
	for _, path := range []string{"/flight", "/flight.json"} {
		if w := get(h, path); w.Code != http.StatusNotFound {
			t.Errorf("%s without a recorder: %d, want 404", path, w.Code)
		}
	}
	if w := get(h, "/metrics.json"); w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "[]" {
		t.Errorf("/metrics.json with no snapshots: %d %q", w.Code, w.Body)
	}
}
