package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	w := Generate(Spec{
		N: 200, Cores: 4, Load: 0.8, Seed: 31, IOFraction: 0.5,
		Apps: []AppChoice{
			{Profile: AppFib, Weight: 1},
			{Profile: AppMd, Weight: 1},
		},
	})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, w.Tasks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w.Tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(got), len(w.Tasks))
	}
	for i, orig := range w.Tasks {
		g := got[i]
		if g.ID != orig.ID || g.App != orig.App {
			t.Fatalf("task %d identity mismatch", i)
		}
		// Microsecond resolution: values are truncated, not perturbed.
		if g.Arrival != orig.Arrival.Truncate(time.Microsecond) {
			t.Fatalf("task %d arrival %v vs %v", i, g.Arrival, orig.Arrival)
		}
		if g.Service != orig.Service.Truncate(time.Microsecond) {
			t.Fatalf("task %d service %v vs %v", i, g.Service, orig.Service)
		}
		if len(g.IOOps) != len(orig.IOOps) {
			t.Fatalf("task %d io ops %d vs %d", i, len(g.IOOps), len(orig.IOOps))
		}
	}
}

// csvRoundTrips reports whether a random workload survives a CSV
// write/read, and whether writing the read-back workload again is a
// fixed point (one truncation to the format's 1µs resolution, no more).
func csvRoundTrips(seed uint64, n uint8) bool {
	w := Generate(Spec{N: int(n%50) + 1, Cores: 2, Load: 0.5, Seed: seed, IOFraction: 0.3})
	var buf bytes.Buffer
	if WriteCSV(&buf, w.Tasks) != nil {
		return false
	}
	got, err := ReadCSV(&buf)
	if err != nil || len(got) != len(w.Tasks) {
		return false
	}
	// Writing the read-back workload must be byte-identical (fixed
	// point after one truncation).
	var buf2 bytes.Buffer
	if WriteCSV(&buf2, got) != nil {
		return false
	}
	got2, err := ReadCSV(&buf2)
	if err != nil || len(got2) != len(got) {
		return false
	}
	for i := range got {
		if got[i].Arrival != got2[i].Arrival || got[i].Service != got2[i].Service {
			return false
		}
	}
	return true
}

func TestCSVRoundTripProperty(t *testing.T) {
	if err := quick.Check(csvRoundTrips, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCSVRoundTripSubMicrosecondService pins an input testing/quick
// drew whose workload holds a positive service under 1µs. It must
// encode as 1µs, not truncate to a 0 the reader rejects.
func TestCSVRoundTripSubMicrosecondService(t *testing.T) {
	if !csvRoundTrips(0xa503462334d91706, 0x50) {
		t.Fatal("CSV round trip failed for seed 0xa503462334d91706, n 0x50")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":  "a,b,c,d,e\n",
		"bad id":      "id,app,arrival_us,service_us,io_ops\nx,fib,0,1000,\n",
		"bad arrival": "id,app,arrival_us,service_us,io_ops\n0,fib,x,1000,\n",
		"bad io op":   "id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,zzz\n",
		"bad io nums": "id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,a:b\n",
		"invalid svc": "id,app,arrival_us,service_us,io_ops\n0,fib,0,0,\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	tasks, err := ReadCSV(strings.NewReader("id,app,arrival_us,service_us,io_ops\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatal("expected empty workload")
	}
}
