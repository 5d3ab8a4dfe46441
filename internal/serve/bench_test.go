package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/store"
)

// BenchmarkUnitRoundTrip is one warm POST /units over loopback: the
// request, the engine's store tier (a memory-front hit) and the
// response, client side included.
func BenchmarkUnitRoundTrip(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Scale: core.TinyScale, Seed: 42, Store: st}).Handler())
	defer ts.Close()
	body := `{"spec": ` + testSpec + `, "key": "svc"}`
	post := func() []byte {
		resp, err := http.Post(ts.URL+"/units", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("unit status = %d: %s", resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	want := post() // cold: computes the cell and stores it
	b.ReportAllocs()
	for b.Loop() {
		if !bytes.Equal(post(), want) {
			b.Fatal("warm unit bytes differ from cold")
		}
	}
}
