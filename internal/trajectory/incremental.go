package trajectory

import (
	"context"

	"afdx/internal/afdx"
	"afdx/internal/netcalc"
)

// Cache is the trajectory engine's state in the incremental what-if
// layer (internal/incremental): the netcalc.Cache its internal NC
// prefix run goes through. After a small delta the prefix bounds are
// served port by port from that cache, and every path is then bounded
// by the same loop a cold run uses. Paths are not memoized: every path
// depends on the prefix bound of every flow at every port it crosses,
// so after a typical delta nearly every path's inputs change, and
// checking them would cost more than the recomputation it could save.
//
// The engine options are not part of a Cache's identity (the prefix
// run always uses netcalc.DefaultOptions), so one Cache serves every
// trajectory option set. Like the netcalc cache, a Cache is not safe
// for concurrent use.
type Cache struct {
	nc *netcalc.Cache
}

// NewCache returns a cache with a private nested netcalc cache for the
// prefix runs. opts is not retained (see Cache).
func NewCache(opts Options) *Cache { return NewCacheWithPrefix(opts, nil) }

// NewCacheWithPrefix is NewCache with a caller-supplied netcalc cache
// backing the internal NC prefix runs (pass the cache of a session's
// own NC analysis when its options equal netcalc.DefaultOptions, so
// the prefix run becomes a pure cache hit). nil allocates a private
// one.
func NewCacheWithPrefix(_ Options, ncc *netcalc.Cache) *Cache {
	if ncc == nil {
		ncc = netcalc.NewCache(netcalc.DefaultOptions())
	}
	return &Cache{nc: ncc}
}

// PrefixNCCache exposes the nested netcalc cache backing the prefix
// runs (for sessions that share it with their own NC analysis).
func (c *Cache) PrefixNCCache() *netcalc.Cache { return c.nc }

// AnalyzeWithCacheCtx runs the Trajectory analysis with its NC prefix
// run served from c's netcalc cache. A nil cache degenerates to
// AnalyzeCtx, and so does PrefixTrajectory mode, which runs no NC
// prefix analysis. The result is bit-identical to a cold AnalyzeCtx
// run on the same graph and options.
func AnalyzeWithCacheCtx(ctx context.Context, pg *afdx.PortGraph, opts Options, c *Cache) (*Result, error) {
	if c == nil {
		return AnalyzeCtx(ctx, pg, opts)
	}
	return analyze(ctx, pg, opts, c.nc)
}
