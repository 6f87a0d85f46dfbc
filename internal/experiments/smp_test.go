package experiments

import (
	"strings"
	"testing"
)

// TestCPUScalingMonotonic: spreading the ghost-webserver workload over
// more CPUs must raise throughput at every step of the sweep.
func TestCPUScalingMonotonic(t *testing.T) {
	pts := CPUScaling(QuickScale(), []int{1, 2, 4})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.ReqPerSec <= 0 {
			t.Fatalf("%d CPUs: no throughput", p.NumCPUs)
		}
		if len(p.Utilization) != p.NumCPUs {
			t.Errorf("%d CPUs: %d utilization samples", p.NumCPUs, len(p.Utilization))
		}
		for c, u := range p.Utilization {
			if u <= 0 || u > 1.0 {
				t.Errorf("%d CPUs: cpu%d utilization %.3f out of (0,1]", p.NumCPUs, c, u)
			}
		}
		if i > 0 && pts[i].ReqPerSec <= pts[i-1].ReqPerSec {
			t.Errorf("throughput not monotonic: %d CPUs %.0f req/s <= %d CPUs %.0f req/s",
				pts[i].NumCPUs, pts[i].ReqPerSec, pts[i-1].NumCPUs, pts[i-1].ReqPerSec)
		}
	}
	if pts[0].Speedup != 1.0 {
		t.Errorf("1-CPU speedup = %.3f, want 1", pts[0].Speedup)
	}
	text := FormatCPUScaling(pts)
	if !strings.Contains(text, "CPU scaling") || !strings.Contains(text, "Speedup") {
		t.Errorf("formatting broken:\n%s", text)
	}
}
