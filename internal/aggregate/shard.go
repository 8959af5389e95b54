package aggregate

import (
	"fmt"
	"strconv"

	"xdmodfed/internal/realm"
)

// Aggregate-level sharding. A realm's aggregation tables can be
// partitioned into independent shards, each living in its own
// warehouse schema ("<realm schema>_agg_s<k>") and therefore — the
// warehouse shards per schema — owning its own writer lock, epoch
// counter, COW snapshot chain and segment-store namespace. Rebuilds
// install per shard with no shared lock, incremental folds touch only
// the shards their rows route to, and chart queries scatter across the
// shards a filter touches, merging partial rows in deterministic
// group-key order.
//
// Rows route by the hash of the realm's resource dimension value — the
// one routing rule. The resource value is part of every aggregation
// group key, so a group never spans shards and the sharded tables
// partition the single-shard reference exactly: bit-identical, not
// approximately. A realm without a categorical resource dimension
// routes every row to shard 0 (its other shards stay empty), so there
// too no group spans shards.
//
// One shard (the default) is the layout every earlier release wrote,
// including the "<realm schema>_agg" schema name.

// ShardKeyResource is the dimension id whose value routes a fact to its
// shard.
const ShardKeyResource = "resource"

// SetSharding configures how many shards each realm's aggregation
// tables split into; shards <= 1 means one. Must be called before Setup
// — the shard schemas are created there.
func (e *Engine) SetSharding(shards int) { e.shards = max(shards, 1) }

// NumShards returns the configured shard count (at least 1).
func (e *Engine) NumShards() int { return max(e.shards, 1) }

// aggSchemaShard names shard k's aggregation schema for a realm. With
// one shard it is the legacy "<schema>_agg" name, so unsharded engines
// are layout-compatible with every earlier release.
func (e *Engine) aggSchemaShard(info realm.Info, k int) string {
	if e.NumShards() <= 1 {
		return AggSchema(info)
	}
	return AggSchema(info) + "_s" + strconv.Itoa(k)
}

// AggSchemas returns every aggregation schema of a realm under this
// engine's sharding — the schemas whose warehouse epochs a chart of
// the realm depends on (the REST layer tags cached charts with
// DB.EpochOf over exactly this set).
func (e *Engine) AggSchemas(info realm.Info) []string {
	n := e.NumShards()
	out := make([]string, n)
	for k := 0; k < n; k++ {
		out[k] = e.aggSchemaShard(info, k)
	}
	return out
}

// fnv1a hashes a shard-routing key (FNV-1a, 32-bit).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// resourceDimIndex returns the index of the realm's categorical
// resource dimension in info.Dimensions, or -1 when the realm has none.
func resourceDimIndex(info realm.Info) int {
	for i, d := range info.Dimensions {
		if d.ID == ShardKeyResource && !d.Numeric {
			return i
		}
	}
	return -1
}

// shardRouter routes one realm's fact rows to shards. Resolved once
// per operation, so the per-row path is a hash and a modulus.
type shardRouter struct {
	shards int
	rdi    int // resource dimension index; -1 = everything in shard 0
}

func (e *Engine) router(info realm.Info) shardRouter {
	return shardRouter{shards: e.NumShards(), rdi: resourceDimIndex(info)}
}

// shardOfResource returns the shard a resource value routes to.
func (r shardRouter) shardOfResource(resource string) int {
	if r.shards == 1 || r.rdi < 0 {
		return 0
	}
	return int(fnv1a(resource) % uint32(r.shards))
}

// shardOf routes one fact (or stored group) by its rendered dimension
// values.
func (r shardRouter) shardOf(dims []string) int {
	if r.rdi < 0 {
		return 0
	}
	return r.shardOfResource(dims[r.rdi])
}

// shardTargets resolves every shard's aggregation tables for a realm:
// out[shard][i] is the shard's table for Periods()[i].
func (e *Engine) shardTargets(info realm.Info) ([][]target, error) {
	n := e.NumShards()
	out := make([][]target, n)
	for k := 0; k < n; k++ {
		schema := e.aggSchemaShard(info, k)
		for _, p := range Periods() {
			tab, err := e.db.TableIn(schema, AggTableName(info.FactTable, p))
			if err != nil {
				return nil, fmt.Errorf("aggregate: realm %s not set up for period %s (shard %d): %w", info.Name, p, k, err)
			}
			out[k] = append(out[k], target{p, tab})
		}
	}
	return out, nil
}
