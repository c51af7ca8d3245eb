package metrics

// The exporter over Snapshot: Prometheus text exposition, the page a
// Handler serves at /metrics.

import (
	"fmt"
	"io"
)

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE lines per family, histograms
// as cumulative _bucket{le=...} series plus _sum and _count, and the
// quantile estimates as <name>{quantile="..."} gauges the way summaries
// export them.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	lastFamily := ""
	for _, s := range snap.Series {
		if s.Name != lastFamily {
			lastFamily = s.Name
			if help := snap.Help(s.Name); help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, help); err != nil {
					return err
				}
			}
			typ := "untyped"
			switch snap.KindOf(s.Name) {
			case KindCounter:
				typ = "counter"
			case KindGauge:
				typ = "gauge"
			case KindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, typ); err != nil {
				return err
			}
		}
		if err := writePromSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

// promName renders name{labels} with extra label pairs appended.
func promName(name string, labels Labels, extra string) string {
	lk := labels.key()
	switch {
	case lk == "" && extra == "":
		return name
	case lk == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + lk + "}"
	}
	return name + "{" + lk + "," + extra + "}"
}

func writePromSeries(w io.Writer, s SeriesSnapshot) error {
	switch s.Kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s %v\n", promName(s.Name, s.Labels, ""), s.Value)
		return err
	case KindHistogram:
		var cum uint64
		for _, b := range s.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s %d\n",
				promName(s.Name+"_bucket", s.Labels, fmt.Sprintf("le=%q", fmt.Sprintf("%g", b.UpperBound))), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n",
			promName(s.Name+"_bucket", s.Labels, `le="+Inf"`), s.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", promName(s.Name+"_sum", s.Labels, ""), s.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promName(s.Name+"_count", s.Labels, ""), s.Count); err != nil {
			return err
		}
		for _, q := range []struct {
			q string
			v float64
		}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}, {"0.999", s.P999}} {
			if s.Count == 0 {
				break // quantiles are NaN on an empty histogram
			}
			if _, err := fmt.Fprintf(w, "%s %v\n",
				promName(s.Name, s.Labels, fmt.Sprintf("quantile=%q", q.q)), q.v); err != nil {
				return err
			}
		}
	}
	return nil
}
