package obs_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"xdmodfed/internal/obs"
)

// FuzzParseExposition: the hub parses the /metrics bodies its members
// serve, so no input may panic the parser. And a registry built from
// the input, rendered and parsed back, must give the same families
// with the same help, sample names, label pairs and values.
func FuzzParseExposition(f *testing.F) {
	var own bytes.Buffer
	if err := obs.Default.Render(&own); err != nil {
		f.Fatal(err)
	}
	f.Add(own.Bytes())
	for _, seed := range []string{
		"# HELP esc_total line one\\nback\\\\slash\n# TYPE esc_total counter\nesc_total 7\n",
		"lbl_total{path=\"a\\\"b\\\\c\\nd\",x=\"\\q\"} 3 1712345678\n",
		"# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"0.1\"} 2\nlat_seconds_bucket{le=\"+Inf\"} 4\nlat_seconds_sum 2.45\nlat_seconds_count 4\n",
		"solo_bucket{le=\"1\"} 2\ng NaN\nh -Inf\n# a comment\n\n",
		"name{x=\"unterminated} 1\n",
		"name{x=\"dangling\\",
		"\x00\x00\x00\x00\x04ab\\\r\x00\x05", // one counter whose help ends in a backslash and '\r'
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obs.ParseExposition(bytes.NewReader(data)) // must not panic

		reg, types, helps, want := registryFrom(data)
		var text bytes.Buffer
		if err := reg.Render(&text); err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseExposition(&text)
		if err != nil {
			t.Fatalf("own render does not parse: %v\n%s", err, text.String())
		}
		got := map[string]float64{}
		for _, fam := range fams {
			if types[fam.Name] != fam.Type {
				t.Errorf("family %s parsed as %q, registered as %q", fam.Name, fam.Type, types[fam.Name])
			}
			if helps[fam.Name] != fam.Help {
				t.Errorf("family %s help parsed as %q, registered as %q", fam.Name, fam.Help, helps[fam.Name])
			}
			delete(types, fam.Name)
			for _, s := range fam.Samples {
				if fam.Type == "histogram" && s.Name != fam.Name+"_count" {
					continue
				}
				got[sampleKey(s.Name, s.Labels)] = s.Value
			}
		}
		for name := range types {
			t.Errorf("family %s lost in the round trip", name)
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || !(g == w || math.IsNaN(g) && math.IsNaN(w)) {
				t.Errorf("sample %s = %v (present %v), want %v", k, g, ok, w)
			}
			delete(got, k)
		}
		for k := range got {
			t.Errorf("sample %s appeared in the round trip", k)
		}
	})
}

// registryFrom builds a registry of up to four families of every type
// from data, with arbitrary help, label values and values. It returns
// each family's type and help and the value every rendered sample must
// parse back to (a histogram's count stands for its samples).
func registryFrom(data []byte) (reg *obs.Registry, types, helps map[string]string, want map[string]float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	text := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	reg, types, helps, want = obs.NewRegistry(), map[string]string{}, map[string]string{}, map[string]float64{}
	for i := 0; i < int(next()%4)+1; i++ {
		suffix := make([]byte, next()%6)
		for j := range suffix {
			suffix[j] = "abcxyz_"[next()%7]
		}
		name := fmt.Sprintf("f%d_%s", i, suffix)
		labels := make([]string, next()%3)
		for j := range labels {
			labels[j] = fmt.Sprintf("l%d", j)
		}
		kind := next() % 3
		help := text(int(next() % 12))
		helps[name] = help
		for k := 0; k < int(next()%3)+1; k++ {
			values := make([]string, len(labels))
			pairs := make([]obs.ParsedLabel, len(labels))
			for j := range values {
				values[j] = text(int(next() % 8))
				pairs[j] = obs.ParsedLabel{Name: labels[j], Value: values[j]}
			}
			switch kind {
			case 0:
				n := uint64(next())
				reg.CounterVec(name, help, labels...).With(values...).Add(n)
				types[name] = "counter"
				want[sampleKey(name, pairs)] += float64(n)
			case 1:
				var bits uint64
				for range 8 {
					bits = bits<<8 | uint64(next())
				}
				v := math.Float64frombits(bits)
				reg.GaugeVec(name, help, labels...).With(values...).Set(v)
				types[name] = "gauge"
				want[sampleKey(name, pairs)] = v
			case 2:
				reg.HistogramVec(name, help, []float64{1, 4, 16}, labels...).With(values...).Observe(float64(next()) / 8)
				types[name] = "histogram"
				want[sampleKey(name+"_count", pairs)]++
			}
		}
	}
	return reg, types, helps, want
}

func sampleKey(name string, labels []obs.ParsedLabel) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		fmt.Fprintf(&b, " %s=%q", l.Name, l.Value)
	}
	return b.String()
}
