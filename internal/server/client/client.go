// Package client is the Go client for the sccserve wire protocol
// (internal/server). It has one transport, Mux (mux.go): a connection
// any number of goroutines share, every request framed "REQ <id> ..."
// and its "RES <id> ..." reply routed back to the caller by id. A lone
// caller therefore gets a plain blocking round trip — its frame is
// flushed at once — and many callers pipeline over the same code. This
// file holds the one-shot verbs and the request encoding they share with
// Batch; txn.go holds the interactive sessions.
package client

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/server/opts"
)

// ErrShed is returned when the server refuses a transaction at admission
// (value function past its zero-crossing, or evicted from a full queue),
// and when an interactive transaction session was reaped server-side.
var ErrShed = errors.New("client: transaction shed by admission control")

// NotPrimaryError is returned when a clustered node refuses a write (or a
// replication verb) because it is not the primary. Addr is the address the
// node believes is primary, or "" when it does not know one — e.g. a
// freshly fenced node mid-election. Callers that follow failover redirect
// to Addr (or re-discover the topology when it is empty).
type NotPrimaryError struct {
	Addr string
}

func (e *NotPrimaryError) Error() string {
	if e.Addr == "" {
		return "client: not primary (no known primary)"
	}
	return "client: not primary, redirect to " + e.Addr
}

// parse splits a response into its kind and payload, surfacing protocol
// errors and sheds as Go errors.
func parse(resp string) (string, error) {
	switch {
	case resp == "SHED":
		return "", ErrShed
	case strings.HasPrefix(resp, "ERR not-primary"):
		addr := strings.TrimSpace(strings.TrimPrefix(resp, "ERR not-primary"))
		if addr == "-" {
			addr = ""
		}
		return "", &NotPrimaryError{Addr: addr}
	case strings.HasPrefix(resp, "ERR"):
		return "", errors.New("client: server error: " + strings.TrimSpace(strings.TrimPrefix(resp, "ERR")))
	case resp == "OK":
		return "", nil
	case strings.HasPrefix(resp, "OK "):
		return resp[3:], nil
	case resp == "NIL":
		return "", nil
	default:
		return "", fmt.Errorf("client: malformed response %q", resp)
	}
}

// checkKey refuses a key the server would not read back as the same one
// key: empty, containing ':' (the op and log encodings' separator), or
// containing any rune strings.Fields splits on — the server tokenises
// request lines that way, so "a\tb" would arrive as two keys. The loop
// skips the ASCII bytes a key may hold; the rest, from the first other
// byte on, is decoded as runes.
func checkKey(key string) error {
	i := 0
	for i < len(key) && key[i] < utf8.RuneSelf && key[i] != ':' && key[i] != ' ' && key[i]-'\t' > '\r'-'\t' {
		i++
	}
	if key == "" || strings.ContainsFunc(key[i:], func(r rune) bool { return r == ':' || unicode.IsSpace(r) }) {
		return fmt.Errorf("client: invalid key %q", key)
	}
	return nil
}

// Ping checks liveness.
func (m *Mux) Ping() error {
	resp, err := m.do("PING")
	if err != nil {
		return err
	}
	_, err = parse(resp)
	return err
}

// Get reads a committed value; ok is false for a missing key.
func (m *Mux) Get(key string) (int64, bool, error) {
	if err := checkKey(key); err != nil {
		return 0, false, err
	}
	resp, err := m.do("GET " + key)
	if err == nil && resp == "NIL" {
		return 0, false, nil
	}
	n, err := intReply(resp, err)
	return n, err == nil, err
}

// Add atomically adds delta to key and returns the new value.
func (m *Mux) Add(key string, delta int64) (int64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	return intReply(m.call(func(b []byte) []byte {
		return strconv.AppendInt(append(append(append(b, "ADD "...), key...), ' '), delta, 10)
	}))
}

// Sum returns the total of the given keys as one consistent cross-shard
// snapshot.
func (m *Mux) Sum(keys ...string) (int64, error) {
	for _, k := range keys {
		if err := checkKey(k); err != nil {
			return 0, err
		}
	}
	return intReply(m.do("SUM " + strings.Join(keys, " ")))
}

// intReply decodes a round trip's one-integer reply.
func intReply(resp string, err error) (int64, error) {
	if err == nil {
		resp, err = parse(resp)
	}
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(resp, 10, 64)
}

// Op is one operation of a transactional update: a read dependency
// (Write false) or a read-modify-write adding Delta (Write true).
type Op struct {
	Key   string
	Delta int64
	Write bool
}

// TxOpts carries the request's Def. 2 value function for admission
// ordering and load shedding: the options of the shared codec
// (internal/server/opts), the same encoder the server's parser is tested
// against. The zero value means "worth 1, no deadline".
type TxOpts = opts.T

// cutTrace splits a verdict reply body's trailing trace= token (present
// only when the request asked for one) from the result fields.
func cutTrace(body string) (rest, trace string) {
	i := strings.LastIndexByte(body, ' ')
	if tr, ok := strings.CutPrefix(body[i+1:], "trace="); ok {
		if i < 0 {
			return "", tr
		}
		return body[:i], tr
	}
	return body, ""
}

// checkOps validates a UPD's ops, returning the number of write results
// its response must carry.
func checkOps(ops []Op) (writes int, err error) {
	if len(ops) == 0 {
		return 0, errors.New("client: no ops")
	}
	for _, o := range ops {
		if err := checkKey(o.Key); err != nil {
			return 0, err
		}
		if o.Write {
			writes++
		}
	}
	return writes, nil
}

// appendUpdate appends ops and o as one REQ-framed UPD line to b, ops
// already checked by checkOps. It grows b once up front, for the frame's
// head, 64 bytes of options and each op at its longest delta.
func appendUpdate(b []byte, id uint64, ops []Op, o TxOpts) []byte {
	n := len("REQ 18446744073709551615 UPD\n") + 64
	for _, op := range ops {
		n += len(" w::-9223372036854775808") + len(op.Key)
	}
	b = o.Append(append(appendReq(slices.Grow(b, n), id), "UPD"...))
	for _, op := range ops {
		if op.Write {
			b = strconv.AppendInt(append(append(append(b, " w:"...), op.Key...), ':'), op.Delta, 10)
		} else {
			b = append(append(b, " r:"...), op.Key...)
		}
	}
	return append(b, '\n')
}

// parseInts appends the space-separated integers of a reply body to dst,
// scanning the body in place.
func parseInts(dst []int64, body string) ([]int64, error) {
	for f := ""; body != ""; {
		f, body, _ = strings.Cut(body, " ")
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("client: malformed result %q", f)
		}
		dst = append(dst, n)
	}
	return dst, nil
}

// parseUpdateResults decodes the body of a successful UPD response into
// the new value of each write op, in op order.
func parseUpdateResults(body string, writes int) ([]int64, error) {
	out, err := parseInts(make([]int64, 0, writes), body)
	if err == nil && len(out) != writes {
		return nil, fmt.Errorf("client: expected %d results, got %d", writes, len(out))
	}
	return out, err
}

// Update executes ops as one serializable transaction and returns the new
// value of each write op, in op order. It is a Batch of one.
func (m *Mux) Update(ops []Op, opts TxOpts) ([]int64, error) {
	r := m.Batch([]UpdateReq{{Ops: ops, Opts: opts}})[0]
	return r.Results, r.Err
}

// Stats fetches the server's counters as a string map.
func (m *Mux) Stats() (map[string]string, error) {
	resp, err := m.do("STATS")
	if err != nil {
		return nil, err
	}
	body, err := parse(resp)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, f := range strings.Fields(body) {
		if i := strings.IndexByte(f, '='); i > 0 {
			out[f[:i]] = f[i+1:]
		}
	}
	return out, nil
}
