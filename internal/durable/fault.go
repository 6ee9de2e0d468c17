// Chaos fault injection. The e2e chaos harness (scripts/e2e_chaos.sh)
// needs fsync failures without real disk faults, forced from outside the
// process by an env-gated hook:
//
//	SCC_FAULT_FSYNC_ERR_AFTER  after N successful fsyncs, every further
//	                           fsync fails with an injected error —
//	                           exercising the sync-gated verdict and
//	                           fail-stop paths
//
// The replica apply stall (SCC_FAULT_APPLY_DELAY_MS), paid once per
// applied round, lives in internal/repl next to the apply loop it
// delays. The variable is parsed
// once at init and costs one atomic add per fsync when set; production
// processes simply never set it.

package durable

import (
	"errors"
	"os"
	"strconv"
	"sync/atomic"
)

var errInjectedFsync = errors.New("durable: injected fsync fault (SCC_FAULT_FSYNC_ERR_AFTER)")

var (
	faultFsyncArmed bool
	faultFsyncLeft  atomic.Int64
)

func init() {
	if n, err := strconv.Atoi(os.Getenv("SCC_FAULT_FSYNC_ERR_AFTER")); err == nil && n >= 0 {
		faultFsyncArmed = true
		faultFsyncLeft.Store(int64(n))
	}
}

// faultFsyncErr reports whether this fsync must fail: true once the
// process-wide countdown is spent. Called right before the real fsync,
// so an injected failure is indistinguishable from a device error to
// everything above.
func faultFsyncErr() bool {
	return faultFsyncArmed && faultFsyncLeft.Add(-1) < 0
}
