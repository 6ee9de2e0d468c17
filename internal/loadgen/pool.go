package loadgen

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/client"
)

// retryBudget bounds how long one transaction keeps chasing the primary
// across redirects, elections, and dead connections before its error is
// surfaced. It must comfortably cover a lease expiry plus catch-up
// replay (default lease 750ms; e2e runs use shorter ones).
const retryBudget = 20 * time.Second

// Pool is the shared view of the cluster across all load workers: the
// member list plus the index of the member currently believed to be
// primary. A redirect observed by any worker re-points the whole pool,
// so the rest stop burning a round trip each on the deposed node.
type Pool struct {
	mu    sync.Mutex
	addrs []string
	cur   int

	redirects atomic.Int64 // ERR not-primary redirects followed
	reconns   atomic.Int64 // transport failures survived by re-dialing
}

// NewPool parses a comma-separated member list, believed primary first.
func NewPool(list string) *Pool {
	p := &Pool{}
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			p.addrs = append(p.addrs, a)
		}
	}
	return p
}

// Len returns the number of known members (redirects may grow it).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.addrs)
}

// Primary returns the member currently believed to be primary.
func (p *Pool) Primary() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addrs[p.cur]
}

// redirect re-points the pool at addr, learned from an ERR not-primary
// reply; a member not yet in the list is adopted. An empty addr (the
// replying node knows no primary — mid-election) rotates to the next
// candidate instead.
func (p *Pool) redirect(addr string) {
	p.redirects.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if addr == "" {
		p.cur = (p.cur + 1) % len(p.addrs)
		return
	}
	for i, a := range p.addrs {
		if a == addr {
			p.cur = i
			return
		}
	}
	p.addrs = append(p.addrs, addr)
	p.cur = len(p.addrs) - 1
}

// rotate moves past a member whose connection died, unless another
// worker already re-pointed the pool elsewhere.
func (p *Pool) rotate(failed string) {
	p.reconns.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addrs[p.cur] == failed {
		p.cur = (p.cur + 1) % len(p.addrs)
	}
}

// Dial connects to the believed primary, falling back through the rest
// of the list; the audit and stats paths use it, which need any live
// member rather than a write-accepting one.
func (p *Pool) Dial() (*client.Mux, error) {
	var lastErr error
	for range p.Len() {
		addr := p.Primary()
		c, err := client.DialMuxTimeout(addr, 2*time.Second)
		if err == nil {
			return c, nil
		}
		lastErr = err
		p.rotate(addr)
	}
	return nil, lastErr
}

// Stats fetches any live member's STATS counters.
func (p *Pool) Stats() (map[string]string, error) {
	c, err := p.Dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// transient reports whether err is a transport failure worth re-dialing
// around, as opposed to a clean protocol error on a healthy connection.
// The Mux wraps the connection's read or write error with %w, so the
// type checks see through its message.
func transient(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.As(err, &ne)
}

// failoverClient is one worker's connection with redirect-following: do
// runs a round trip against the believed primary, chasing ERR
// not-primary redirects and re-dialing around dead connections until
// the exchange lands, retryBudget runs out, or the run's deadline
// passes. Verdicts (OK/SHED) and ordinary protocol errors pass straight
// through. A retried transaction can double-apply when the crash
// swallowed the first attempt's ack: AuditLedger's atLeast form
// tolerates exactly that, and balanced deltas conserve however often
// they land.
type failoverClient struct {
	pool *Pool
	c    *client.Mux
	addr string
}

func (f *failoverClient) close() {
	if f.c != nil {
		f.c.Close()
		f.c = nil
	}
}

// do reports sent=false when fn never ran — no member could be dialed
// before the budget or deadline expired. There is then no outcome to
// account: booking such a transaction (worst of all its zero-value nil
// error, as a commit) would corrupt the acked-commit ledger with work
// that never left the client.
func (f *failoverClient) do(deadline time.Time, fn func(*client.Mux) error) (sent bool, err error) {
	// Failover handling needs somewhere to redirect to: with a single
	// address the classic fail-fast behavior (which the chaos harness
	// depends on) is kept — no retries, a dead connection just gets
	// re-dialed next call.
	multi := f.pool.Len() > 1
	limit := time.Now().Add(retryBudget)
	if !deadline.IsZero() && deadline.Before(limit) {
		limit = deadline
	}
	backoff := 25 * time.Millisecond
	for {
		if err != nil {
			if !multi || !time.Now().Add(backoff).Before(limit) {
				return sent, err
			}
			time.Sleep(backoff)
			backoff = min(2*backoff, 250*time.Millisecond)
		}
		if f.c == nil {
			addr := f.pool.Primary()
			if f.c, err = client.DialMuxTimeout(addr, 2*time.Second); err != nil {
				f.pool.rotate(addr)
				continue
			}
			f.addr = addr
		}
		sent = true
		err = fn(f.c)
		var np *client.NotPrimaryError
		switch {
		case err == nil, errors.Is(err, client.ErrShed):
			return true, err
		case multi && errors.As(err, &np):
			// The deposed node answered cleanly but cannot take writes;
			// drop the connection so the next attempt dials the member
			// it named (or the next candidate, when it named none).
			f.close()
			f.pool.redirect(np.Addr)
		case transient(err):
			f.close()
			f.pool.rotate(f.addr)
		default:
			return true, err
		}
	}
}
