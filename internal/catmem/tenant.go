package catmem

import "fmt"

// tenantStats counts one tenant's datapath activity on this instance.
// Quota enforcement (flows, in-flight qtokens, push rate, heap bytes)
// lives in tenant.View layered above the libOS; catmem's job is to keep
// the activity attributable so the counters and the region heap's
// per-tenant accounting line up.
type tenantStats struct {
	pushes, pops uint64
}

// RegisterTenant publishes a tenant's telemetry under the tenant.<id>.
// namespace (tenant.Registrar). The weight is accepted for interface
// symmetry with catnip but unused: shared-memory rings are wait-free, so
// there is no scheduler to weight.
func (l *LibOS) RegisterTenant(tid, weight uint32) {
	if tid == 0 || l.tstats[tid] != nil {
		return
	}
	ts := &tenantStats{}
	l.tstats[tid] = ts
	prefix := fmt.Sprintf("tenant.%d.catmem.", tid)
	l.Telemetry().Sample(prefix+"pushes", func() int64 { return int64(ts.pushes) })
	l.Telemetry().Sample(prefix+"pops", func() int64 { return int64(ts.pops) })
}

func (l *LibOS) bumpPush(tid uint32) {
	if ts := l.tstats[tid]; ts != nil {
		ts.pushes++
	}
}

func (l *LibOS) bumpPop(tid uint32) {
	if ts := l.tstats[tid]; ts != nil {
		ts.pops++
	}
}
