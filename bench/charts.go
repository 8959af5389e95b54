package bench

import (
	"math/rand"
	"net/url"
	"strconv"
	"sync"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
)

// chartRequest is one chart query, both as the HTTP client sends it
// and as Server.QuerySeries takes it.
type chartRequest struct {
	realm  string
	req    aggregate.Request
	format string // "json" or "svg"
}

func (c chartRequest) query() string {
	v := url.Values{"realm": {c.realm}, "metric": {c.req.MetricID}, "period": {c.req.Period.String()}, "format": {c.format}}
	if c.req.GroupBy != "" {
		v.Set("group_by", c.req.GroupBy)
	}
	if c.req.StartKey != 0 {
		v.Set("start", strconv.FormatInt(c.req.StartKey, 10))
		v.Set("end", strconv.FormatInt(c.req.EndKey, 10))
	}
	for dim, val := range c.req.Filters {
		v.Set("filter."+dim, val)
	}
	return v.Encode()
}

// countChart is, per kind of batch, the chart that makes its realm's
// fact count visible: the realm's row-count metric over all time. The
// total only grows as batches land, so "total >= expected" means the
// batch is included.
var countChart = map[string]chartRequest{
	"jobs":    {realm: "Jobs", req: aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year}, format: "json"},
	"cloud":   {realm: "Cloud", req: aggregate.Request{MetricID: cloud.MetricVMsStarted, Period: aggregate.Year}, format: "json"},
	"storage": {realm: "Storage", req: aggregate.Request{MetricID: storage.MetricUserCount, Period: aggregate.Year}, format: "json"},
}

// windows are the period-key ranges a request may ask for; {0, 0} is
// the whole of 2017.
var windows = map[aggregate.Period][][2]int64{
	aggregate.Year:    {{0, 0}, {2017, 2017}},
	aggregate.Quarter: {{0, 0}, {20171, 20172}, {20173, 20174}, {20172, 20173}},
	aggregate.Month:   {{0, 0}, {201701, 201706}, {201707, 201712}, {201704, 201709}},
	aggregate.Day:     {{0, 0}, {20170101, 20170331}, {20170401, 20170630}, {20170701, 20170930}},
}

// filters are dimension values the generated inputs are known to have.
var filters = map[string][][2]string{
	"Jobs":    {{jobs.DimResource, "comet"}, {jobs.DimResource, "stampede2"}, {jobs.DimResource, "stampede"}},
	"Cloud":   {{cloud.DimInstanceType, "m1.tiny"}, {cloud.DimInstanceType, "m1.small"}, {cloud.DimInstanceType, "m1.medium"}, {cloud.DimInstanceType, "m1.large"}},
	"Storage": {{storage.DimResourceType, "persistent"}, {storage.DimResourceType, "scratch"}},
}

// chartPool takes n distinct requests, evenly spaced, from the product
// realm x metric x group_by x period x window x filter, four in five
// rendered as JSON and one in five as SVG, and shuffles them. The seed
// decides the data on the hub and the order of the requests, not which
// requests are made: a pool drawn at random answers with 7 % more or
// fewer bytes from one seed to the next. Distinct requests have
// distinct cache keys, so the first pass over a pool misses every time.
func chartPool(rng *rand.Rand, n int) []chartRequest {
	var all []chartRequest
	for _, info := range []realm.Info{jobs.RealmInfo(), cloud.RealmInfo(), storage.RealmInfo()} {
		groupBys := []string{""}
		for _, d := range info.Dimensions {
			groupBys = append(groupBys, d.ID)
		}
		for _, m := range info.Metrics {
			for _, g := range groupBys {
				for _, p := range aggregate.Periods() {
					for _, w := range windows[p] {
						for f := -1; f < len(filters[info.Name]); f++ {
							req := aggregate.Request{MetricID: m.ID, GroupBy: g, Period: p, StartKey: w[0], EndKey: w[1]}
							if f >= 0 {
								fl := filters[info.Name][f]
								req.Filters = map[string]string{fl[0]: fl[1]}
							}
							all = append(all, chartRequest{realm: info.Name, req: req})
						}
					}
				}
			}
		}
	}
	if n > len(all) {
		n = len(all)
	}
	pool := make([]chartRequest, n)
	for i := range pool {
		pool[i] = all[i*len(all)/n]
		pool[i].format = "json"
		if i%5 == 4 {
			pool[i].format = "svg"
		}
	}
	rng.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// pass issues every request of order once, spread over the load
// goroutines, each with its own connection, and returns the latency
// of each request (ms) in order, the body bytes read, and the failures.
func pass(fr *hubFront, pool []chartRequest, order []int) (tookMS []float64, bytes int64, failed int) {
	tookMS = make([]float64, len(order))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < loadGoroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var n int64
			bad := 0
			for i := c; i < len(order); i += loadGoroutines {
				start := time.Now()
				body, err := fr.get(pool[order[i]].query())
				tookMS[i] = ms(time.Since(start))
				if err != nil {
					bad++
				}
				n += int64(len(body))
			}
			mu.Lock()
			bytes += n
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return tookMS, bytes, failed
}

// liveChartRead is the closed loop on a static hub: a fresh REST
// server (an empty query cache) goes over the hub, the pool is issued
// once (every request a miss), then hotPasses seeded shuffles of it
// (every request a hit), so hits/(hits+misses) is exactly
// passes/(passes+1). Latency samples are the misses; ops, wall, CPU
// and wire bytes are counted over the hit passes.
func liveChartRead(e *env, _ time.Duration) (*liveStats, error) {
	st := &liveStats{facts: e.preloaded}
	rng := rand.New(rand.NewSource(e.seed + 1))
	order := make([]int, len(e.pool))
	for i := range order {
		order[i] = i
	}
	fr, err := serve(e.fed.front.hub)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	cold, _, failed := pass(fr, e.pool, order)
	st.latencyMS, st.chartMS = cold, cold
	st.attempted, st.failed = len(order), failed

	cpu0, _ := rusage()
	start := time.Now()
	for p := 0; p < e.hotPasses; p++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		hot, n, failed := pass(fr, e.pool, order)
		st.hotMS = append(st.hotMS, hot...)
		st.wire += n
		st.ops += len(order)
		st.attempted += len(order)
		st.failed += failed
	}
	cpu1, _ := rusage()
	st.wall, st.cpu = time.Since(start), cpu1-cpu0

	st.cache, _ = fr.server.CacheStats()
	_, st.responseBytes = fr.samples()
	// The server still holds its full cache: that is the state the heap
	// is measured in.
	st.heap = liveHeap()
	return st, nil
}
