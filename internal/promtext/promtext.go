// Package promtext writes the Prometheus text exposition format. It is the
// one renderer behind every /metrics page in the repo: schedd's serving
// metrics and the cluster coordinator's routing metrics.
package promtext

import (
	"fmt"
	"strconv"
	"strings"
)

// Writer appends metric families to a builder.
type Writer struct{ B *strings.Builder }

// Header writes the HELP and TYPE lines that open a family; samples follow
// with Sample.
func (w Writer) Header(name, help, typ string) {
	fmt.Fprintf(w.B, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one integer sample. labels is empty or a rendered label
// set such as `{worker="http://a"}`.
func (w Writer) Sample(name, labels string, v int64) {
	fmt.Fprintf(w.B, "%s%s %d\n", name, labels, v)
}

// Counter writes a single-sample integer counter family.
func (w Writer) Counter(name, help string, v int64) {
	w.Header(name, help, "counter")
	w.Sample(name, "", v)
}

// Gauge writes a single-sample integer gauge family.
func (w Writer) Gauge(name, help string, v int64) {
	w.Header(name, help, "gauge")
	w.Sample(name, "", v)
}

// Seconds writes a single-sample counter family of seconds, to the
// microsecond.
func (w Writer) Seconds(name, help string, v float64) {
	w.Header(name, help, "counter")
	fmt.Fprintf(w.B, "%s %.6f\n", name, v)
}

// Label renders a one-label set for Sample.
func Label(name, value string) string {
	return "{" + name + "=" + strconv.Quote(value) + "}"
}

// Histogram writes a histogram family. counts[i] is the number of
// observations in bucket i alone (at most bounds[i], above bounds[i-1]);
// the cumulative buckets and +Inf are derived here. sum is in the
// observations' unit.
func (w Writer) Histogram(name, help string, bounds []float64, counts []int64, count int64, sum float64) {
	w.Header(name, help, "histogram")
	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		w.Sample(name+"_bucket", Label("le", strconv.FormatFloat(ub, 'g', -1, 64)), cum)
	}
	w.Sample(name+"_bucket", `{le="+Inf"}`, count)
	fmt.Fprintf(w.B, "%s_sum %.9f\n", name, sum)
	w.Sample(name+"_count", "", count)
}
