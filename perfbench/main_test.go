package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
)

// tiny is the scale the tests run every workload at.
var tiny = scale{Warmup: 2_000, Measure: 10_000}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runOnce runs the benchmark in process at the tiny scale with one
// measured session (or one traced pair) and returns its output lines
// and result.
func runOnce(t *testing.T, w benchWorkload, traced bool) ([]string, result) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	res, err := measure(options{workload: w, seed: 3, seconds: 0, traced: traced, scale: tiny, workdir: dir, spansDir: dir}, &out)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	// run prints the result as one JSON line.
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%v: %+v\n%s", w.name, traced, res, out.String())
	}
	return strings.Split(strings.TrimSpace(out.String()), "\n"), *res
}

// identity is the part of a run's output that must repeat exactly:
// response digests and the counts line.
func identity(lines []string) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "digest ") || strings.HasPrefix(l, "counts ") {
			out = append(out, l)
		}
	}
	return out
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced twice
// and traced once: every named metric appears with its unit, no time
// reads 0, the two untraced runs print identical digests and counts,
// and the traced run's numbers hold the fleet and warm-restart
// invariants.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			lines, res := runOnce(t, w, false)
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("trace 0 printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("trace 0: %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}

			again, _ := runOnce(t, w, false)
			id1, id2 := identity(lines), identity(again)
			if len(id1) < 3 || strings.Join(id1, "\n") != strings.Join(id2, "\n") {
				t.Errorf("two runs differ:\n%s\n--\n%s", strings.Join(id1, "\n"), strings.Join(id2, "\n"))
			}

			_, tres := runOnce(t, w, true)
			if len(tres.Metrics) != len(spec.PerLayer) {
				t.Errorf("trace 1 printed %d metrics, BENCHMARK.json names %d", len(tres.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				got, ok := tres.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("trace 1: %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
				isTime := m.Unit == "s" || m.Unit == "ms" || strings.HasPrefix(m.Unit, "ns/")
				if isTime && got.Value == 0 {
					t.Errorf("trace 1: time %s reads 0", m.Name)
				}
			}
			v := func(name string) float64 { return tres.Metrics[name].Value }
			if w.warm && (v("atrace.builds") != 0 || v("atrace.disk_hits") == 0) {
				t.Errorf("warm-restart traced run built %v traces, loaded %v", v("atrace.builds"), v("atrace.disk_hits"))
			}
			if w.fleet && (v("server.peer_fetch_errors") != 0 || v("server.peer_points_fetched") == 0 || v("atrace.leases_taken") == 0) {
				t.Errorf("fleet traced run: %v fetch errors, %v points fetched, %v leases",
					v("server.peer_fetch_errors"), v("server.peer_points_fetched"), v("atrace.leases_taken"))
			}
			if !w.warm && v("atrace.builds") == 0 {
				t.Errorf("%s traced run built no traces", w.name)
			}
		})
	}
}

// TestFleetMatchesSolo pins the fleet's figure4 bodies byte-identical to
// a solo daemon's for the same key.
func TestFleetMatchesSolo(t *testing.T) {
	fleet, _ := findWorkload("fleet-figure4")
	solo, _ := findWorkload("cold-sweep")
	bodies := func(w benchWorkload) map[string]string {
		st, err := setUp(w, 5, tiny, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		out := map[string]string{}
		for _, format := range []string{"json", "csv", "text"} {
			b, err := st.get(st.front.url() + "/v1/exhibits/figure4?seed=5&warmup=2000&measure=10000&format=" + format)
			if err != nil {
				t.Fatal(err)
			}
			out[format] = string(b)
		}
		return out
	}
	want, got := bodies(solo), bodies(fleet)
	for format := range want {
		if got[format] != want[format] {
			t.Errorf("figure4 %s: fleet body differs from solo", format)
		}
	}
}

// corruptBodies damages every exhibit response on the client side.
type corruptBodies struct {
	base http.RoundTripper
	edit func(format string, body []byte) []byte
}

func (c corruptBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !strings.HasPrefix(req.URL.Path, "/v1/exhibits/") {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(c.edit(req.URL.Query().Get("format"), b)))
	return resp, nil
}

// TestCorruptBodyCountsAsFailure drives sessions whose response bodies
// are damaged in transit. Truncated bodies and bodies without rows fail
// their own checks; a body altered in place still parses, and its digest
// differs from a clean session's, which the run compares.
func TestCorruptBodyCountsAsFailure(t *testing.T) {
	w, _ := findWorkload("cold-sweep")
	w.exhibits = []string{"figure4"}
	session := func(edit func(string, []byte) []byte) *session {
		st, err := setUp(w, 7, tiny, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		if edit != nil {
			st.client.Transport = corruptBodies{base: st.client.Transport, edit: edit}
		}
		s, err := drive(st, w, 7, tiny, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	clean := session(nil)
	if clean.failed != 0 || clean.attempted != 2 {
		t.Fatalf("clean session: %d of %d attempts failed: %v", clean.failed, clean.attempted, clean.failures)
	}
	for name, edit := range map[string]func(string, []byte) []byte{
		"truncated": func(_ string, b []byte) []byte { return b[:len(b)/2] },
		"no rows": func(format string, b []byte) []byte {
			if format == "json" {
				return []byte("{\"rows\": []}\n")
			}
			return b[:bytes.IndexByte(b, '\n')+1] // the csv header alone
		},
		"error body": func(string, []byte) []byte { return []byte("{\"error\": \"x\"}\n") },
	} {
		s := session(edit)
		if s.failed != 2 || s.attempted != 2 {
			t.Errorf("%s bodies: %d of %d attempts failed, want 2 of 2: %v", name, s.failed, s.attempted, s.failures)
		}
	}
	flipped := session(func(_ string, b []byte) []byte {
		// Change the first fractional digit: the body still parses.
		b = append([]byte(nil), b...)
		if i := bytes.IndexByte(b, '.'); i >= 0 && i+1 < len(b) {
			b[i+1] = '0' + (b[i+1]-'0'+1)%10
		}
		return b
	})
	if flipped.failed != 0 || slices.Equal(flipped.digests, clean.digests) {
		t.Errorf("a body altered in place: %d failures, digests equal to clean: %v",
			flipped.failed, slices.Equal(flipped.digests, clean.digests))
	}
}
