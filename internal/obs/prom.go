package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP string per the Prometheus text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatLabels renders {k="v",...}; extra appends one more pair (used for
// the histogram le label). Returns "" with no labels.
func formatLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family visible from the registry in the
// Prometheus text exposition format (version 0.0.4): for each family a
// `# HELP` line, a `# TYPE` line, and one sample line per child (histogram
// children expand to cumulative `_bucket` lines plus `_sum` and `_count`).
// Func-backed children are evaluated during the call.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.gather() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.snapshot() {
			labels := formatLabels(f.labelNames, c.labelValues, "", "")
			switch {
			case c.counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, c.counter.Value())
			case c.counterFn != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, c.counterFn())
			case c.gauge != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labels, c.gauge.Value())
			case c.gaugeFn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labels, formatFloat(c.gaugeFn()))
			case c.hist != nil:
				bounds, cum := c.hist.snapshotBuckets()
				for i, b := range bounds {
					le := formatLabels(f.labelNames, c.labelValues, "le", formatFloat(b))
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, le, cum[i])
				}
				inf := formatLabels(f.labelNames, c.labelValues, "le", "+Inf")
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, inf, cum[len(cum)-1])
				fmt.Fprintf(bw, "%s_sum%s %d\n", f.name, labels, c.hist.Sum())
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labels, cum[len(cum)-1])
			}
		}
	}
	return bw.Flush()
}

// Snapshot returns every scalar sample visible from the registry as a map
// from `name{label="value",...}` to value. Histogram children contribute
// their `_sum` and `_count` series (buckets are omitted; use
// WritePrometheus for the full distribution). The map is a point-in-time
// copy safe to retain.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, f := range r.gather() {
		for _, c := range f.snapshot() {
			key := f.name + formatLabels(f.labelNames, c.labelValues, "", "")
			switch {
			case c.counter != nil:
				out[key] = float64(c.counter.Value())
			case c.counterFn != nil:
				out[key] = float64(c.counterFn())
			case c.gauge != nil:
				out[key] = float64(c.gauge.Value())
			case c.gaugeFn != nil:
				out[key] = c.gaugeFn()
			case c.hist != nil:
				labels := formatLabels(f.labelNames, c.labelValues, "", "")
				out[f.name+"_sum"+labels] = float64(c.hist.Sum())
				out[f.name+"_count"+labels] = float64(c.hist.Count())
			}
		}
	}
	return out
}

// ParsedFamily is one metric family recovered by ParsePrometheus.
type ParsedFamily struct {
	// Name and Help come from the # HELP line, Type from # TYPE.
	Name string
	Help string
	Type string
	// Samples maps the full sample key (name plus rendered label set,
	// exactly as exposed) to its value. Histogram _bucket/_sum/_count
	// series appear under their expanded names.
	Samples map[string]float64
}

// ParsePrometheus parses the subset of the Prometheus text exposition
// format that WritePrometheus emits — HELP/TYPE comments followed by
// sample lines — and validates its shape: every sample belongs to a
// declared family, histogram bucket series are cumulative and end in a
// +Inf bucket equal to _count, and no family is declared twice. It exists
// so tests can round-trip /metrics output through an independent reader
// instead of string-matching, and returns the families keyed by name.
func ParsePrometheus(text string) (map[string]*ParsedFamily, error) {
	fams := map[string]*ParsedFamily{}
	var cur *ParsedFamily
	lines := strings.Split(text, "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without a metric name", ln+1)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("line %d: family %q declared twice", ln+1, name)
			}
			cur = &ParsedFamily{Name: name, Help: help, Samples: map[string]float64{}}
			fams[name] = cur
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || cur == nil || cur.Name != name {
				return nil, fmt.Errorf("line %d: TYPE for %q does not follow its HELP", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
				cur.Type = typ
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", ln+1, typ)
			}
		case strings.HasPrefix(line, "#"):
			// Other comments are permitted by the format.
		default:
			key, valStr, err := splitSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
			base := SampleFamily(key)
			f, ok := fams[base]
			if !ok {
				return nil, fmt.Errorf("line %d: sample %q has no declared family", ln+1, key)
			}
			if f.Type == "" {
				return nil, fmt.Errorf("line %d: sample %q before its TYPE", ln+1, key)
			}
			if _, dup := f.Samples[key]; dup {
				return nil, fmt.Errorf("line %d: duplicate sample %q", ln+1, key)
			}
			f.Samples[key] = v
		}
	}
	for name, f := range fams {
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, fmt.Errorf("family %q: %v", name, err)
			}
		}
	}
	return fams, nil
}

// splitSample splits a sample line into its key (name + label block) and
// value, respecting quotes inside the label block.
func splitSample(line string) (key, value string, err error) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		depth := false
		for j := i; j < len(line); j++ {
			switch line[j] {
			case '"':
				depth = !depth
			case '\\':
				j++
			case '}':
				if !depth {
					rest := strings.TrimSpace(line[j+1:])
					if rest == "" {
						return "", "", fmt.Errorf("sample %q has no value", line)
					}
					return line[:j+1], rest, nil
				}
			}
		}
		return "", "", fmt.Errorf("unterminated label block in %q", line)
	}
	name, val, ok := strings.Cut(line, " ")
	if !ok {
		return "", "", fmt.Errorf("sample %q has no value", line)
	}
	return name, strings.TrimSpace(val), nil
}

// SampleFamily maps a sample key to the family name that declared it,
// stripping the label block and the histogram series suffixes.
func SampleFamily(key string) string {
	name := key
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

// checkHistogram validates the cumulative-bucket invariants of a parsed
// histogram family: per label set, bucket counts are non-decreasing in le,
// the +Inf bucket exists, and it equals the _count series.
func checkHistogram(f *ParsedFamily) error {
	type bucket struct {
		le  float64
		inf bool
		v   float64
	}
	series := map[string][]bucket{}
	counts := map[string]float64{}
	for key, v := range f.Samples {
		name := key
		labels := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, inf, base, err := extractLE(labels)
			if err != nil {
				return err
			}
			series[base] = append(series[base], bucket{le: le, inf: inf, v: v})
		case strings.HasSuffix(name, "_count"):
			counts[labels] = v
		}
	}
	for base, bs := range series {
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].inf != bs[j].inf {
				return bs[j].inf
			}
			return bs[i].le < bs[j].le
		})
		last := -1.0
		for _, b := range bs {
			if b.v < last {
				return fmt.Errorf("buckets of %q not cumulative", base)
			}
			last = b.v
		}
		if !bs[len(bs)-1].inf {
			return fmt.Errorf("series %q has no +Inf bucket", base)
		}
		if c, ok := counts[base]; !ok || c != bs[len(bs)-1].v {
			return fmt.Errorf("series %q: +Inf bucket %v != count %v", base, bs[len(bs)-1].v, c)
		}
	}
	return nil
}

// extractLE pulls the le label out of a rendered label block, returning
// the remaining labels re-rendered as the series key.
func extractLE(labels string) (le float64, inf bool, base string, err error) {
	if labels == "" || labels[0] != '{' {
		return 0, false, "", fmt.Errorf("bucket sample without labels: %q", labels)
	}
	inner := labels[1 : len(labels)-1]
	var kept []string
	found := false
	for _, pair := range splitLabelPairs(inner) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return 0, false, "", fmt.Errorf("bad label pair %q", pair)
		}
		v = strings.Trim(v, `"`)
		if k == "le" {
			found = true
			if v == "+Inf" {
				inf = true
				continue
			}
			le, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, false, "", fmt.Errorf("bad le %q: %v", v, err)
			}
			continue
		}
		kept = append(kept, pair)
	}
	if !found {
		return 0, false, "", fmt.Errorf("bucket sample without le: %q", labels)
	}
	if len(kept) == 0 {
		return le, inf, "", nil
	}
	return le, inf, "{" + strings.Join(kept, ",") + "}", nil
}

// splitLabelPairs splits the inside of a label block on commas outside
// quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case '\\':
			i++
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
