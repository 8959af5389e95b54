package rest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
)

// chartJSONResponse renders series as the /api/chart JSON document. It
// is the reflection-based form the handler used before appendChartJSON,
// kept as that encoder's oracle.
func chartJSONResponse(p chartParams, series []aggregate.Series, explain *QueryStat) chartResponse {
	resp := chartResponse{Realm: p.realm, Metric: p.req.MetricID, Period: p.req.Period.String(), Explain: explain}
	for _, ser := range series {
		sr := seriesResponse{Group: ser.Group, Aggregate: ser.Aggregate, N: ser.N}
		for _, pt := range ser.Points {
			sr.Points = append(sr.Points, pointResponse{Period: p.req.Period.Label(pt.PeriodKey), Key: pt.PeriodKey, Value: pt.Value})
		}
		resp.Series = append(resp.Series, sr)
	}
	return resp
}

// encoderBody is what writeJSON wrote for the chart before: the
// json.Encoder bytes of chartJSONResponse.
func encoderBody(t testing.TB, p chartParams, series []aggregate.Series, explain *QueryStat) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(chartJSONResponse(p, series, explain)); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return buf.String()
}

// jsonTextPieces build random strings that exercise every escape
// encoding/json applies: quotes, backslashes, HTML characters, each
// short control escape and the \u00XX ones, DEL, multi-byte text,
// U+2028/U+2029, and invalid UTF-8.
var jsonTextPieces = []string{
	"a", "Z", "9", " ", "Jobs", `"`, `\`, "<", ">", "&", "'", "/",
	"\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
	"\u00e9", "\u6f22", "\U0001F680", "\u2028", "\u2029", "\uFFFD",
	"\x80", "\xc3", "\xe2\x80", "\xff",
}

func randJSONText(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(8); n > 0; n-- {
		b.WriteString(jsonTextPieces[r.Intn(len(jsonTextPieces))])
	}
	return b.String()
}

// randFinite draws finite floats on both sides of encoding/json's
// 'f'/'e' switch (1e-6 and 1e21), with one- and two-digit exponents,
// integers, negatives and both zeros.
func randFinite(r *rand.Rand) float64 {
	var v float64
	switch r.Intn(7) {
	case 0:
		v = math.Pow(10, r.Float64()*60-30)
	case 1:
		v = [...]float64{0, 1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1e-7, 1e-10, 1e100, 5e-324, math.MaxFloat64}[r.Intn(10)]
	case 2:
		v = float64(r.Int63n(1 << 53))
	case 3:
		v = math.Copysign(0, -1)
	default:
		v = r.Float64() * 1e4
	}
	if r.Intn(3) == 0 {
		v = -v
	}
	return v
}

func randChartInput(r *rand.Rand) (chartParams, []aggregate.Series) {
	p := chartParams{realm: randJSONText(r)}
	p.req.MetricID = randJSONText(r)
	p.req.Period = aggregate.Period(r.Intn(6)) // includes the invalid periods 0 and 5
	if r.Intn(8) == 0 {
		return p, nil
	}
	series := make([]aggregate.Series, r.Intn(6))
	for i := range series {
		s := &series[i]
		s.Group = randJSONText(r)
		s.Aggregate = randFinite(r)
		s.N = r.Int63() - r.Int63()
		for n := r.Intn(12); n > 0; n-- {
			key := int64(201700 + r.Intn(300))
			if r.Intn(10) == 0 {
				key = r.Int63() - r.Int63()
			}
			s.Points = append(s.Points, aggregate.Point{PeriodKey: key, Value: randFinite(r)})
		}
	}
	return p, series
}

// TestAppendChartJSONMatchesEncoder holds appendChartJSON to the bytes
// json.Encoder writes for the same chart, with and without explain.
func TestAppendChartJSONMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		p, series := randChartInput(r)
		var explain *QueryStat
		if r.Intn(3) == 0 {
			explain = &QueryStat{
				Time: time.Unix(r.Int63n(1<<31), r.Int63n(1e9)).UTC(), TraceID: randJSONText(r),
				Realm: p.realm, Metric: p.req.MetricID, Period: p.req.Period.String(),
				Filters:    map[string]string{randJSONText(r): randJSONText(r)},
				DurationMS: randFinite(r), RowsScanned: r.Intn(1e6), Epoch: r.Uint64(), Cache: "hit",
			}
		}
		got, err := appendChartJSON([]byte("prefix"), p, series, explain)
		if err != nil {
			t.Fatalf("chart %d: %v", i, err)
		}
		if want := "prefix" + encoderBody(t, p, series, explain); string(got) != want {
			t.Fatalf("chart %d differs from json.Encoder:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestAppendChartJSONRejectsNonFinite: encoding/json cannot encode
// ±Inf or NaN, and neither can appendChartJSON, wherever the value sits.
func TestAppendChartJSONRejectsNonFinite(t *testing.T) {
	p := chartParams{realm: "Jobs"}
	p.req.MetricID, p.req.Period = "job_count", aggregate.Year
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, series := range [][]aggregate.Series{
			{{Group: "a", Aggregate: v}},
			{{Group: "a", Points: []aggregate.Point{{PeriodKey: 2017, Value: 1}, {PeriodKey: 2018, Value: v}}}},
		} {
			if _, err := appendChartJSON(nil, p, series, nil); err == nil {
				t.Errorf("value %v encoded without error", v)
			}
		}
	}
}

// FuzzChartJSON holds appendChartJSON to json.Encoder for any strings,
// period, keys and finite floats.
func FuzzChartJSON(f *testing.F) {
	f.Add("Jobs", "total_cpu_hours", "comet", 4, int64(2017), 1.5, 1e21, false)
	f.Add("<realm>&", `"quoted"\`, "\u2028\u2029", 2, int64(201701), 1e-7, -0.0, true)
	f.Add("\x00\x1f\x7f", "\xff\xc3", "\b\f\n\r\t", 1, int64(-20170815), 5e-324, math.MaxFloat64, false)
	f.Add("", "", "", 0, int64(0), 0.0, 1e-6, true)
	f.Fuzz(func(t *testing.T, realm, metric, group string, period int, key int64, agg, value float64, explain bool) {
		if math.IsInf(agg, 0) || math.IsNaN(agg) || math.IsInf(value, 0) || math.IsNaN(value) {
			t.Skip("encoding/json rejects non-finite values")
		}
		p := chartParams{realm: realm}
		p.req.MetricID, p.req.Period = metric, aggregate.Period(period)
		series := []aggregate.Series{
			{Group: group, Aggregate: agg, N: key, Points: []aggregate.Point{{PeriodKey: key, Value: value}, {PeriodKey: key + 1, Value: agg}}},
			{Group: metric},
		}
		var ex *QueryStat
		if explain {
			ex = &QueryStat{Realm: realm, Metric: metric, Rollup: group, DurationMS: value, Cache: "miss"}
		}
		got, err := appendChartJSON(nil, p, series, ex)
		if err != nil {
			t.Fatal(err)
		}
		if want := encoderBody(t, p, series, ex); string(got) != want {
			t.Fatalf("differs from json.Encoder:\n got %q\nwant %q", got, want)
		}
	})
}

// TestChartNonFiniteIs500: a chart whose series holds a non-finite
// value cannot be encoded; the handler answers 500 naming the realm and
// metric instead of an empty 200.
func TestChartNonFiniteIs500(t *testing.T) {
	s := newServer(testInstance(t))
	srv := s.Handler()
	token := login(t, srv)
	const path = "/api/chart?realm=Jobs&metric=job_count&period=year"
	req := httptest.NewRequest("GET", path, nil)
	p, err := s.parseChartRequest(req.URL.Query())
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cache with an infinite point under the current epoch, so
	// the request is answered from it.
	_, _, err = s.cache.GetOrCompute(chartKey(p.realm, p.req, p.rollup, p.top), s.realmEpoch(p.realm), func() (chartResult, error) {
		return chartResult{Series: []aggregate.Series{{Points: []aggregate.Point{{PeriodKey: 2017, Value: math.Inf(1)}}}}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, token, path)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if !strings.Contains(resp.Error, "Jobs/job_count") || !strings.Contains(resp.Error, "+Inf") {
		t.Errorf("error %q does not name the chart and the value", resp.Error)
	}
}

// TestWriteJSONEncodeFailureIs500: writeJSON encodes before it writes
// the header, so a value encoding/json rejects becomes a 500 with an
// error body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Error, "unsupported value") {
		t.Errorf("body %q (%v), want the encoding error", rec.Body, err)
	}
}
