// Wire encoding of replication records. A part travels as one pushed
// line on a subscribed connection:
//
//	LOG <shard> <position> <epoch>[@<s0>,<s1>,...] <key>:<value> ...
//
// The second field is the part's position in the node's commit order;
// the third is its commit epoch, and a part of a cross-shard commit
// additionally carries the full participant shard set after '@'
// (ascending, comma-separated): the commit's parts travel at consecutive
// positions in that order, which is how the replica reads them as one
// record. Keys never contain ':' (a protocol invariant of the serving
// layer), so the first ':' of each pair is the separator. Values must be
// space- and newline-free tokens; every value the serving layer writes
// is an ASCII decimal integer, which qualifies. See docs/PROTOCOL.md for
// the normative rules.

package repl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// EncodeLog renders one record as a LOG line (no trailing newline). Pairs
// are emitted in sorted key order so the encoding is deterministic.
func EncodeLog(shard int, r Record) string {
	keys := make([]string, 0, len(r.Writes))
	for k := range r.Writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "LOG %d %d %d", shard, r.Index, r.Epoch)
	for i, s := range r.Shards {
		if i == 0 {
			b.WriteByte('@')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte(':')
		b.Write(r.Writes[k])
	}
	return b.String()
}

// ParseLog decodes the fields of a LOG line after the verb, Shard
// included. It is the inverse of EncodeLog.
func ParseLog(fields []string) (shard int, r Record, err error) {
	if len(fields) < 4 {
		return 0, Record{}, fmt.Errorf("repl: short LOG line (%d fields)", len(fields))
	}
	shard, err = strconv.Atoi(fields[0])
	if err != nil || shard < 0 {
		return 0, Record{}, fmt.Errorf("repl: bad LOG shard %q", fields[0])
	}
	r.Shard = shard
	r.Index, err = strconv.ParseUint(fields[1], 10, 64)
	if err != nil || r.Index == 0 {
		return 0, Record{}, fmt.Errorf("repl: bad LOG position %q", fields[1])
	}
	r.Epoch, r.Shards, err = parseEpochSpec(fields[2])
	if err != nil {
		return 0, Record{}, err
	}
	r.Writes = make(map[string][]byte, len(fields)-3)
	for _, pair := range fields[3:] {
		k, v, err := ParsePair(pair)
		if err != nil {
			return 0, Record{}, fmt.Errorf("repl: bad LOG pair %q", pair)
		}
		r.Writes[k] = v
	}
	return shard, r, nil
}

// parseEpochSpec decodes the LOG line's epoch token:
// "<epoch>" (standalone) or "<epoch>@<s0>,<s1>,..." (cross-shard, with
// the full ascending participant set).
func parseEpochSpec(tok string) (uint64, []int, error) {
	spec, rest, cross := strings.Cut(tok, "@")
	epoch, err := strconv.ParseUint(spec, 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("repl: bad LOG epoch %q", tok)
	}
	if !cross {
		return epoch, nil, nil
	}
	parts := strings.Split(rest, ",")
	if len(parts) < 2 || epoch == 0 {
		return 0, nil, fmt.Errorf("repl: bad LOG epoch spec %q", tok)
	}
	shards := make([]int, len(parts))
	prev := -1
	for i, p := range parts {
		s, err := strconv.Atoi(p)
		if err != nil || s < 0 || s <= prev {
			return 0, nil, fmt.Errorf("repl: bad LOG epoch spec %q", tok)
		}
		shards[i] = s
		prev = s
	}
	return epoch, shards, nil
}

// ParsePair decodes one <key>:<value> token — the encoding LOG records
// and SNAPKV snapshot lines share. The first ':' separates (keys never
// contain one); both consumers must use this single decoder so a future
// change to the pair syntax cannot apply to one path and not the other.
func ParsePair(pair string) (string, []byte, error) {
	k, v, ok := strings.Cut(pair, ":")
	if !ok || k == "" {
		return "", nil, fmt.Errorf("repl: bad pair %q", pair)
	}
	return k, []byte(v), nil
}
