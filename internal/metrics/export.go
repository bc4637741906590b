package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a registry's contents, detached from
// the live metrics. Snapshots from separate runs can be merged (counters and
// histograms sum; gauges take the other snapshot's value).
type Snapshot struct {
	Families []FamilySnapshot
}

// FamilySnapshot is one metric family, series sorted by label signature.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Bounds []float64 // histograms only
	Series []SeriesSnapshot
}

// SeriesSnapshot is one labelled series of a family.
type SeriesSnapshot struct {
	Labels []Label
	// Value holds counter and gauge readings.
	Value float64
	// BucketCounts are per-bucket (non-cumulative) observation counts, one
	// per bound plus the +Inf overflow; Sum and Count complete the histogram.
	BucketCounts []int64
	Sum          float64
	Count        int64
}

// Snapshot copies the registry's current values. Returns an empty snapshot
// on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := r.families[name]
		fs := FamilySnapshot{
			Name:   fam.name,
			Help:   fam.help,
			Kind:   fam.kind,
			Bounds: append([]float64(nil), fam.bounds...),
		}
		sigs := make([]string, 0, len(fam.series))
		for sig := range fam.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := fam.series[sig]
			ss := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			if s.ctr != nil {
				ss.Value += float64(s.ctr.Value())
			}
			if s.gge != nil {
				ss.Value += float64(s.gge.Value())
			}
			if s.fn != nil {
				ss.Value += s.fn()
			}
			if s.hist != nil {
				ss.BucketCounts = make([]int64, len(s.hist.counts))
				for i := range s.hist.counts {
					ss.BucketCounts[i] = s.hist.counts[i].Load()
				}
				ss.Sum = s.hist.Sum()
				ss.Count = s.hist.Count()
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Merge folds other into s: counters and histograms sum, gauges take other's
// value, families or series present only in other are appended.
func (s *Snapshot) Merge(other Snapshot) {
	for _, of := range other.Families {
		f := s.familyByName(of.Name)
		if f == nil {
			cp := of
			cp.Series = append([]SeriesSnapshot(nil), of.Series...)
			s.Families = append(s.Families, cp)
			sort.Slice(s.Families, func(i, j int) bool { return s.Families[i].Name < s.Families[j].Name })
			continue
		}
		for _, os := range of.Series {
			ss := f.seriesByLabels(os.Labels)
			if ss == nil {
				f.Series = append(f.Series, os)
				continue
			}
			switch f.Kind {
			case KindGauge:
				ss.Value = os.Value
			case KindCounter:
				ss.Value += os.Value
			case KindHistogram:
				ss.Sum += os.Sum
				ss.Count += os.Count
				for i := range ss.BucketCounts {
					if i < len(os.BucketCounts) {
						ss.BucketCounts[i] += os.BucketCounts[i]
					}
				}
			}
		}
	}
}

// Value sums the series of the named counter or gauge family; an absent family
// reads as zero.
func (s *Snapshot) Value(name string) float64 {
	var sum float64
	if f := s.familyByName(name); f != nil {
		for i := range f.Series {
			sum += f.Series[i].Value
		}
	}
	return sum
}

func (s *Snapshot) familyByName(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

func (f *FamilySnapshot) seriesByLabels(labels []Label) *SeriesSnapshot {
	want := signature(labels)
	for i := range f.Series {
		if signature(f.Series[i].Labels) == want {
			return &f.Series[i]
		}
	}
	return nil
}

// Quantile estimates the q-quantile (0 < q < 1) of a histogram series by
// linear interpolation within the containing bucket, against the family's
// bounds. It returns NaN for empty histograms or non-histogram series.
func (f *FamilySnapshot) Quantile(s *SeriesSnapshot, q float64) float64 {
	if s.Count == 0 || len(s.BucketCounts) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.BucketCounts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = f.Bounds[i-1]
		}
		if i >= len(f.Bounds) {
			return lo // +Inf bucket: report its lower bound
		}
		hi := f.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return f.Bounds[len(f.Bounds)-1]
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). No output on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot in the Prometheus text format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, fam := range s.Families {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		for i := range fam.Series {
			if err := writeSeries(w, &fam, &fam.Series[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, fam *FamilySnapshot, s *SeriesSnapshot) error {
	if fam.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, renderLabels(s.Labels, "", ""), formatValue(s.Value))
		return err
	}
	var cum int64
	for i, c := range s.BucketCounts {
		cum += c
		le := "+Inf"
		if i < len(fam.Bounds) {
			le = formatValue(fam.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name, renderLabels(s.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.Name, renderLabels(s.Labels, "", ""), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name, renderLabels(s.Labels, "", ""), s.Count)
	return err
}

// renderLabels renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" bound). Empty label sets render as "".
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeValue(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeValue(v string) string {
	// %q handles backslash and quote; Prometheus additionally wants literal
	// newlines as \n, which %q also produces. So %q at the call site is
	// enough; this hook remains for future divergence.
	return v
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Summary renders an aligned, human-readable table of every series — the
// structured end-of-run report printed by cmd/mqbench. Histograms render
// count, mean, and interpolated p50/p95/p99. Empty on a nil registry.
func (r *Registry) Summary() string {
	return r.Snapshot().Summary()
}

// Summary renders the snapshot as an aligned table.
func (s Snapshot) Summary() string {
	type row struct{ name, value string }
	var rows []row
	width := 0
	for _, fam := range s.Families {
		for i := range fam.Series {
			ser := &fam.Series[i]
			name := fam.Name + renderLabels(ser.Labels, "", "")
			var val string
			if fam.Kind == KindHistogram {
				mean := 0.0
				if ser.Count > 0 {
					mean = ser.Sum / float64(ser.Count)
				}
				val = fmt.Sprintf("count=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g",
					ser.Count, mean,
					fam.Quantile(ser, 0.50), fam.Quantile(ser, 0.95), fam.Quantile(ser, 0.99))
			} else {
				val = formatValue(ser.Value)
			}
			rows = append(rows, row{name, val})
			if len(name) > width {
				width = len(name)
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r.name, r.value)
	}
	return b.String()
}
