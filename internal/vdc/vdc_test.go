package vdc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func deposit(t *testing.T, c *Catalog, name string, typ ProductType, mw float64, tags ...string) string {
	t.Helper()
	id, err := c.Deposit(Product{
		Name: name, Type: typ, Batch: "b1", Region: "chile",
		Mw: mw, SizeBytes: 1024, Tags: tags,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDepositGetDelete(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "run000001 waveforms", TypeWaveform, 8.1)
	p, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "run000001 waveforms" || p.Accesses != 1 {
		t.Fatalf("product %+v", p)
	}
	if _, err := c.Get(id); err != nil {
		t.Fatal(err)
	}
	p2, _ := c.Get(id)
	if p2.Accesses != 3 {
		t.Fatalf("accesses %d, want 3", p2.Accesses)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(id); err == nil {
		t.Fatal("deleted product retrievable")
	}
	if err := c.Delete(id); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestDepositValidation(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Deposit(Product{Type: TypeWaveform}); err == nil {
		t.Fatal("nameless product accepted")
	}
	if _, err := c.Deposit(Product{Name: "x", Type: "movie"}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := c.Deposit(Product{Name: "x", Type: TypeRupture, SizeBytes: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestSearchFilters(t *testing.T) {
	c := NewCatalog()
	deposit(t, c, "wf small", TypeWaveform, 7.9, "eew", "training")
	deposit(t, c, "wf big", TypeWaveform, 8.9, "eew")
	deposit(t, c, "rupture set", TypeRupture, 8.2)

	if got := c.Search(Query{}); len(got) != 3 {
		t.Fatalf("unfiltered search returned %d", len(got))
	}
	if got := c.Search(Query{Type: TypeWaveform}); len(got) != 2 {
		t.Fatalf("type filter returned %d", len(got))
	}
	if got := c.Search(Query{Tag: "TRAINING"}); len(got) != 1 {
		t.Fatalf("tag filter returned %d", len(got))
	}
	if got := c.Search(Query{MinMw: 8.5}); len(got) != 1 || got[0].Name != "wf big" {
		t.Fatalf("min_mw filter returned %v", got)
	}
	if got := c.Search(Query{MaxMw: 8.0}); len(got) != 1 {
		t.Fatalf("max_mw filter returned %d", len(got))
	}
	if got := c.Search(Query{Text: "BIG"}); len(got) != 1 {
		t.Fatalf("text filter returned %d", len(got))
	}
	if got := c.Search(Query{Region: "cascadia"}); len(got) != 0 {
		t.Fatalf("region filter returned %d", len(got))
	}
	if got := c.Search(Query{Batch: "b1", Type: TypeRupture}); len(got) != 1 {
		t.Fatalf("combined filter returned %d", len(got))
	}
}

func TestTagging(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "wf", TypeWaveform, 8.0)
	if err := c.Tag(id, "eew", "eew", "EEW", " ", "chile-2023"); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Get(id)
	if len(p.Tags) != 2 {
		t.Fatalf("tags %v, want deduplicated pair", p.Tags)
	}
	if err := c.Tag("vdc-999999", "x"); err == nil {
		t.Fatal("tagging missing product accepted")
	}
}

func TestPopularOrdering(t *testing.T) {
	c := NewCatalog()
	a := deposit(t, c, "a", TypeWaveform, 8.0)
	b := deposit(t, c, "b", TypeWaveform, 8.0)
	deposit(t, c, "cold", TypeRupture, 8.0)
	for i := 0; i < 5; i++ {
		if _, err := c.Get(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	top := c.Popular(2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "a" {
		t.Fatalf("popular %v", top)
	}
	if got := c.Popular(100); len(got) != 3 {
		t.Fatalf("popular(100) returned %d", len(got))
	}
	if got := c.Popular(-1); len(got) != 0 {
		t.Fatalf("popular(-1) returned %d", len(got))
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewCatalog()))
	defer srv.Close()
	cl := NewClient(srv.URL)

	id, err := cl.Deposit(Product{
		Name: "run000042 waveforms", Type: TypeWaveform,
		Batch: "fdw-1", Region: "chile", Mw: 8.4, SizeBytes: 5 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "vdc-") {
		t.Fatalf("id %q", id)
	}
	if err := cl.Tag(id, "eew", "training"); err != nil {
		t.Fatal(err)
	}
	p, err := cl.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mw != 8.4 || len(p.Tags) != 2 {
		t.Fatalf("product %+v", p)
	}
	found, err := cl.Search(Query{Type: TypeWaveform, Tag: "eew", MinMw: 8.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].ID != id {
		t.Fatalf("search %v", found)
	}
	pop, err := cl.Popular(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 1 {
		t.Fatalf("popular %v", pop)
	}
	if err := cl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(id); err == nil {
		t.Fatal("deleted product retrievable over HTTP")
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewCatalog()))
	defer srv.Close()
	cl := NewClient(srv.URL)

	if _, err := cl.Deposit(Product{Name: "x", Type: "junk"}); err == nil {
		t.Fatal("bad deposit accepted")
	}
	if _, err := cl.Get("vdc-000404"); err == nil {
		t.Fatal("missing product returned")
	}
	if err := cl.Delete("vdc-000404"); err == nil {
		t.Fatal("missing delete accepted")
	}

	// Raw protocol errors.
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{"PUT", "/products", "", http.StatusMethodNotAllowed},
		{"POST", "/products", "{not json", http.StatusBadRequest},
		{"GET", "/products?min_mw=high", "", http.StatusBadRequest},
		{"GET", "/products?max_mw=low", "", http.StatusBadRequest},
		{"POST", "/popular", "", http.StatusMethodNotAllowed},
		{"GET", "/popular?n=-2", "", http.StatusBadRequest},
		{"GET", "/popular?n=notanumber", "", http.StatusBadRequest},
		{"GET", "/products/", "", http.StatusBadRequest},
		{"GET", "/products/x/y/z", "", http.StatusNotFound},
		{"GET", "/products/x/tags", "", http.StatusMethodNotAllowed},
		{"POST", "/products/x/tags", "[1,2]", http.StatusBadRequest},
		{"DELETE", "/products/x/tags", "", http.StatusMethodNotAllowed},
		{"POST", "/products/x/tags", "{not json", http.StatusBadRequest},
		{"PUT", "/products/x", "", http.StatusMethodNotAllowed},
		{"POST", "/metrics", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s → %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

// Bodies past maxBodyBytes are refused with 413 and leave the catalog
// as it was.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "run000001 waveforms", TypeWaveform, 8.1, "eew")
	srv := NewServer(c)
	huge := strings.Repeat("x", maxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/products", `{"name":"big","type":"waveform","batch":"b","region":"r","description":"` + huge + `"}`},
		{"/products/" + id + "/tags", `["` + huge + `"]`},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body → %d, want %d", tc.path, len(tc.body), rec.Code, http.StatusRequestEntityTooLarge)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("catalog holds %d products after oversized deposit, want 1", c.Len())
	}
	p, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tags) != 1 || p.Tags[0] != "eew" {
		t.Fatalf("tags after oversized tag request: %v", p.Tags)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	s := NewServer(NewCatalog())
	srv := httptest.NewServer(s)
	defer srv.Close()
	cl := NewClient(srv.URL)

	if _, err := cl.Deposit(Product{Name: "wf", Type: TypeWaveform, Mw: 8.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("vdc-000404"); err == nil {
		t.Fatal("missing product returned")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics → %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE vdc_http_requests_total counter",
		`vdc_http_requests_total{method="POST",route="/products",status="201"} 1`,
		`vdc_http_requests_total{method="GET",route="/products/{id}",status="404"} 1`,
		"vdc_catalog_products 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "vdc-000404") {
		t.Error("product ids leaked into metric labels")
	}

	// The registry accessor exposes the same counters programmatically.
	snap := s.Registry().Snapshot()
	var total uint64
	for _, c := range snap.Counters {
		if c.Name == "vdc_http_requests_total" {
			total += c.Value
		}
	}
	if total < 2 {
		t.Fatalf("request counter total %d, want >= 2", total)
	}
}

func TestCatalogLen(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 0 {
		t.Fatal("new catalog not empty")
	}
	deposit(t, c, "x", TypeArchive, 0)
	if c.Len() != 1 {
		t.Fatal("Len != 1 after deposit")
	}
}

func TestCatalogSaveLoad(t *testing.T) {
	c := NewCatalog()
	id := deposit(t, c, "persisted", TypeWaveform, 8.3, "eew")
	if _, err := c.Get(id); err != nil { // bump access counter
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("loaded %d products", c2.Len())
	}
	p, err := c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "persisted" || !p.HasTag("eew") || p.Accesses != 2 {
		t.Fatalf("restored product %+v", p)
	}
	// New deposits continue the ID sequence without collisions.
	id2 := deposit(t, c2, "later", TypeRupture, 8.0)
	if id2 == id {
		t.Fatal("ID collision after restore")
	}
}

func TestLoadCatalogRejectsCorrupt(t *testing.T) {
	if _, err := LoadCatalog(strings.NewReader("{ not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := LoadCatalog(strings.NewReader(`{"next_id":1,"products":[{"id":"x","type":"movie","name":"m"}]}`)); err == nil {
		t.Fatal("unknown product type accepted")
	}
}
