package bench

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/chart"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/rest"
	"xdmodfed/internal/warehouse"
)

// The stepped replay is the traced half of a --trace 1 run. It feeds
// the same input files to a second, quiet federation — satellites with
// no senders, a hub with no listener — and performs by hand, one call
// after the other on one goroutine, what the live system does
// concurrently: shred, commit, read the binlog, rewrite and gob the
// frame, apply on the hub, bring aggregates current, query, render.
// Each call sits in a span, so every layer's time, allocations and
// work counts are attributed; what the live run adds on top (sender
// wake-up, TCP, HTTP, scheduling, queueing) is the stage residual.

// wireFrame mirrors the fields of replicate's unexported batch frame
// that carry payload; gob encodes by field name and omits zero fields,
// so the sizes match what a sender puts on the wire.
type wireFrame struct {
	UpTo   uint64
	Events []warehouse.Event
	Deltas []aggregate.Delta
}

// stepMember is one quiet satellite and what its sender would hold.
type stepMember struct {
	name   string
	sat    *core.Satellite
	rw     *replicate.Rewriter
	pf     *replicate.PushdownFolder // nil unless the workload pushes down
	tables map[string]bool           // federated tables
	pos    uint64                    // binlog position shipped so far
}

// stepPair is the quiet federation the replay drives.
type stepPair struct {
	hub     *core.Hub
	server  *rest.Server
	members []*stepMember

	// scratch takes the isolated layer calls: a warehouse table to
	// insert into, an engine to fold into, a delta folder to fold into.
	scratch   *core.Satellite
	scratchDF *aggregate.DeltaFolder

	wire bytes.Buffer
	enc  *gob.Encoder
	dec  *gob.Decoder
	err  error // first failure; the replay stops on it
}

func newStepPair(e *env) (*stepPair, error) {
	hub, err := newHub()
	if err != nil {
		return nil, err
	}
	p := &stepPair{hub: hub, server: rest.NewHubServer(hub)}
	p.enc, p.dec = gob.NewEncoder(&p.wire), gob.NewDecoder(&p.wire)
	var all []config.ResourceConfig
	for _, spec := range e.specs {
		if err := hub.Register(spec.name); err != nil {
			return nil, err
		}
		sat, err := core.NewSatellite(config.InstanceConfig{Name: spec.name, Version: core.Version, Resources: spec.resources, AggregationLevels: levels()})
		if err != nil {
			return nil, err
		}
		filter := spec.filter()
		var pf *replicate.PushdownFolder
		if e.w.mode == "pushdown" {
			var infos []realm.Info
			for _, r := range spec.realms {
				info, _ := sat.Registry.Get(r)
				infos = append(infos, info)
			}
			if pf, err = replicate.NewPushdownFolder(sat.Engine, infos, filter, 0); err != nil {
				return nil, err
			}
			req := replicate.PushdownRequest{Enabled: true, Realms: pf.Realms(), LevelsDigest: pf.Digest()}
			if err := hub.NegotiatePushdown(spec.name, req); err != nil {
				return nil, err
			}
			pf.PrepareConnect()
		}
		p.members = append(p.members, &stepMember{name: spec.name, sat: sat, pf: pf,
			rw: replicate.NewRewriter(spec.name, filter), tables: filter.IncludeTables})
		all = append(all, spec.resources...)
	}
	p.scratch, err = core.NewSatellite(config.InstanceConfig{Name: "scratch", Version: core.Version, Resources: all, AggregationLevels: levels()})
	if err != nil {
		return nil, err
	}
	info, _ := p.scratch.Registry.Get("Jobs")
	p.scratchDF, err = p.scratch.Engine.NewDeltaFolder(info)
	return p, err
}

func (p *stepPair) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// shipped is what one ship moved, for the isolated calls afterwards.
type shipped struct {
	factRows     [][]any // rows of the Jobs fact-table inserts, as committed
	wire, apply  int     // span ids
	federatedEvs int
}

// ship moves member mi's new binlog events to the hub: binlog.read,
// wire (rewrite, pushdown fold, gob round trip), hub.apply.
func (p *stepPair) ship(tr *tracer, k, root, mi int) shipped {
	var sh shipped
	m := p.members[mi]
	var evs []warehouse.Event
	tr.call(k, root, "binlog.read", "binlog.read", false, func(int) int {
		var err error
		evs, err = m.sat.DB.Binlog().ReadFrom(m.pos, 0)
		p.fail(err)
		return len(evs)
	})
	jobsInfo, _ := m.sat.Registry.Get("Jobs")
	for _, ev := range evs {
		if m.tables[ev.Table] && ev.Kind != warehouse.EvCreateTable {
			sh.federatedEvs++
			if ev.Kind == warehouse.EvInsert && ev.Table == jobsInfo.FactTable {
				sh.factRows = append(sh.factRows, ev.Row)
			}
		}
	}
	var got wireFrame
	bins := 0
	sh.wire = tr.call(k, root, "wire", "wire", false, func(wire int) int {
		frame := wireFrame{}
		tr.call(k, wire, "wire.rewrite", "wire.rewrite", false, func(int) int {
			frame.Events, frame.UpTo = m.rw.ProcessBatch(evs)
			return len(evs)
		})
		if m.pf != nil {
			tr.call(k, wire, "wire.pushdown_fold", "wire.pushdown_fold", false, func(int) int {
				var err error
				frame.Events, err = m.pf.Consume(frame.Events, frame.UpTo)
				p.fail(err)
				frame.Deltas, bins, err = m.pf.Flush(time.Now())
				p.fail(err)
				return len(sh.factRows)
			})
		}
		tr.call(k, wire, "wire.gob", "wire.gob", false, func(int) int {
			p.fail(p.enc.Encode(frame))
			n := p.wire.Len()
			p.fail(p.dec.Decode(&got))
			return n
		})
		return len(frame.Events)
	})
	sh.apply = tr.call(k, root, "hub.apply", "hub.apply", false, func(apply int) int {
		p.fail(p.hub.ApplyBatch(m.name, got.UpTo, got.Events))
		if len(got.Deltas) > 0 {
			tr.call(k, apply, "hub.apply_delta", "hub.apply_delta", false, func(int) int {
				p.fail(p.hub.ApplyDeltas(context.Background(), m.name, got.UpTo, got.Deltas))
				return bins
			})
		}
		// Work is counted in the fact events the frame carried or, pushed
		// down, covered: the same facts cost the hub this much either way.
		return sh.federatedEvs
	})
	m.pos = got.UpTo
	return sh
}

// isolatedWrites repeats, on scratch state and the same fact rows, the
// layer calls the system makes inside ingest.commit, wire and
// hub.apply where the harness cannot reach.
func (p *stepPair) isolatedWrites(tr *tracer, k, commit int, sh shipped) {
	if len(sh.factRows) == 0 {
		return
	}
	info, _ := p.scratch.Registry.Get("Jobs")
	tab, err := p.scratch.DB.TableIn(info.Schema, info.FactTable)
	if err != nil {
		p.fail(err)
		return
	}
	tr.call(k, commit, "warehouse.insert", "warehouse.insert", true, func(int) int {
		p.fail(p.scratch.DB.Do(func() error {
			for _, row := range sh.factRows {
				if err := tab.InsertRow(row); err != nil {
					return err
				}
			}
			return nil
		}))
		return len(sh.factRows)
	})
	tr.call(k, sh.apply, "fold", "fold", true, func(int) int {
		_, err := p.scratch.Engine.ApplyFactRows(info, info.Schema, sh.factRows)
		p.fail(err)
		return len(sh.factRows)
	})
	tr.call(k, sh.wire, "delta_fold", "delta_fold", true, func(int) int {
		p.fail(p.scratchDF.FoldRows(sh.factRows))
		p.scratchDF.Flush()
		return len(sh.factRows)
	})
}

func render(c chartRequest, series []aggregate.Series) int {
	if c.format == "svg" {
		return len(chart.New(c.realm+": "+c.req.MetricID, "", c.req.MetricID, c.req.Period, series).SVG(0, 0))
	}
	out, _ := json.Marshal(series)
	return len(out)
}

// queried is the span ids of one query's stages.
type queried struct {
	scan, render int
	series       []aggregate.Series
}

// query answers c through the hub's REST server the way handleChart
// does: query.scan (QuerySeries, a cache miss) then render.
func (p *stepPair) query(tr *tracer, k, root int, c chartRequest) queried {
	var q queried
	q.scan = tr.call(k, root, "query.scan", "query.scan", false, func(int) int {
		series, stat, err := p.server.QuerySeries(context.Background(), c.realm, c.req, "", 0)
		p.fail(err)
		if err == nil && stat.Cache != "miss" {
			p.fail(fmt.Errorf("bench: stepped query %s was a cache %s, want miss", c.query(), stat.Cache))
		}
		q.series = series
		return 1
	})
	q.render = tr.call(k, root, "render", "render."+c.format, false, func(int) int {
		render(c, q.series)
		return 1
	})
	return q
}

// isolatedQuery repeats c as a cache hit, straight on the engine, and
// rendered the other way.
func (p *stepPair) isolatedQuery(tr *tracer, k int, c chartRequest, q queried) {
	tr.call(k, q.scan, "qcache.hit", "qcache.hit", true, func(int) int {
		_, stat, err := p.server.QuerySeries(context.Background(), c.realm, c.req, "", 0)
		p.fail(err)
		if err == nil && stat.Cache != "hit" {
			p.fail(fmt.Errorf("bench: repeated query %s was a cache %s, want hit", c.query(), stat.Cache))
		}
		return 1
	})
	info, _ := p.hub.Registry.Get(c.realm)
	tr.call(k, q.scan, "query.engine", "query.engine", true, func(int) int {
		_, qi, err := p.hub.Engine.QueryStats(info, c.req)
		p.fail(err)
		tr.counts["rows_scanned"] += qi.RowsScanned
		return 1
	})
	other := c
	other.format = map[string]string{"json": "svg", "svg": "json"}[c.format]
	tr.call(k, q.render, "render", "render."+other.format, true, func(int) int {
		render(other, q.series)
		return 1
	})
}

// preload ingests the set-up files and ships them, untraced.
func (p *stepPair) preload(e *env) error {
	feeds, err := openFeeds(e.preloadFiles)
	if err != nil {
		return err
	}
	defer closeFeeds(feeds)
	quiet := newTracer()
	for _, fd := range feeds {
		for {
			b, ok, err := fd.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if _, _, err := ingestBatch(p.members[b.member].sat.Pipeline, b); err != nil {
				return err
			}
			p.ship(quiet, 0, 0, b.member)
		}
	}
	p.fail(p.hub.EnsureAggregated())
	return p.err
}

// traced says whether stepped batch k records spans: batches alternate
// in pairs, so that workloads whose batches alternate in kind (cloud
// and storage, member A and member B) have both kinds on both sides.
func traced(k int) bool { return k/2%2 == 0 }

// stepWrites replays a write workload's batches; the time budget can
// end the replay early.
func stepWrites(e *env, budget time.Duration, tr *tracer) error {
	p, err := newStepPair(e)
	if err != nil {
		return err
	}
	if err := p.preload(e); err != nil {
		return err
	}
	in, err := e.openInput()
	if err != nil {
		return err
	}
	defer in.Close()
	t0 := time.Now()
	for k := 0; k < e.batches && time.Since(t0) < budget && p.err == nil; k++ {
		b, ok, err := in.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var sh shipped
		var q queried
		var commitID int
		c := countChart[b.kind]
		tr.batch(k, traced(k), func(root int) {
			var rec parsed
			tr.call(k, root, "shred", "shred."+b.kind, false, func(int) int {
				var err error
				rec, err = shred(b)
				p.fail(err)
				tr.counts["shred.rejected"] += rec.rejected
				return b.lines
			})
			commitID = tr.call(k, root, "ingest.commit", "ingest."+b.kind, false, func(int) int {
				st, err := commit(p.members[b.member].sat.Pipeline, rec)
				p.fail(err)
				tr.counts["ingest.rejected"] += st.Rejected + st.Skipped
				return rec.records
			})
			sh = p.ship(tr, k, root, b.member)
			tr.call(k, root, "rebuild", "rebuild", false, func(int) int {
				p.fail(p.hub.EnsureAggregated())
				return 1
			})
			q = p.query(tr, k, root, c)
		}, func(int) {
			p.isolatedWrites(tr, k, commitID, sh)
			p.isolatedQuery(tr, k, c, q)
		})
	}
	// One full rebuild of each replicated realm on the (last) member, to
	// price the path every non-additive batch takes.
	tr.on = true
	sat := p.members[len(p.members)-1].sat
	for _, r := range e.specs[len(e.specs)-1].realms {
		info, _ := sat.Registry.Get(r)
		tr.call(e.batches, 0, "rebuild", "rebuild.engine", true, func(int) int {
			n, err := sat.Engine.Reaggregate(info, []string{info.Schema})
			p.fail(err)
			return n
		})
	}
	tr.on = false
	return p.err
}

// stepCharts replays chart-read: each pool request once through
// query.scan and render, with the hit, engine and other-format repeats
// isolated.
func stepCharts(e *env, budget time.Duration, tr *tracer) error {
	p, err := newStepPair(e)
	if err != nil {
		return err
	}
	if err := p.preload(e); err != nil {
		return err
	}
	t0 := time.Now()
	for k, c := range e.pool {
		if time.Since(t0) >= budget || p.err != nil {
			break
		}
		var q queried
		tr.batch(k, traced(k), func(root int) {
			q = p.query(tr, k, root, c)
		}, func(int) {
			p.isolatedQuery(tr, k, c, q)
		})
	}
	return p.err
}
