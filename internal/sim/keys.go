package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// keyField is a field of Options that encoding/json writes: its index,
// its `"name":` prefix and its key tag (see Options).
type keyField struct {
	index       int
	prefix, tag string
}

var keyFields = func() (fs []keyField) {
	t := reflect.TypeOf(Options{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if name != "-" {
			fs = append(fs, keyField{i, strconv.Quote(name) + ":", f.Tag.Get("key")})
		}
	}
	return fs
}()

// key renders o's keyed fields as one JSON object, each value exactly
// as encoding/json writes it on the wire, with no omitempty. Fields
// tagged key:"-" never appear. view "run" drops the per-run fields;
// view "core" replaces the core configurations with one "core" member,
// the configuration a kind-k core is built from. A value that fails to
// encode (an unknown enum) contributes its error text, so the key stays
// deterministic and distinct from every valid one.
func (o *Options) key(view string, k Kind) string {
	var buf bytes.Buffer
	buf.Grow(2048)
	enc := json.NewEncoder(&buf)
	v := reflect.ValueOf(o).Elem()
	sep, narrowed := byte('{'), false
	for _, f := range keyFields {
		prefix, x := f.prefix, any(nil)
		switch {
		case f.tag == "-", f.tag == "run" && view == "run":
			continue
		case f.tag == "core" && view == "core":
			if narrowed {
				continue
			}
			narrowed, prefix = true, `"core":`
			cfg, err := coreConfig(k, *o)
			if x = cfg; err != nil {
				x = int(k)
			}
		default:
			x = v.Field(f.index).Addr().Interface()
		}
		buf.WriteByte(sep)
		sep = ','
		buf.WriteString(prefix)
		if err := enc.Encode(x); err != nil {
			buf.WriteString(strconv.Quote(err.Error()))
		} else {
			buf.Truncate(buf.Len() - 1) // Encode's trailing newline
		}
	}
	buf.WriteByte('}')
	return buf.String()
}

// Fingerprint is the canonical key of every simulation-affecting option:
// the options' JSON form without the hooks, which observe a run without
// changing it, and NoFastForward, which changes wall-clock speed, never
// the outcome. Two Options with equal fingerprints produce identical
// outcomes on the same program, so the wire form carries it as a
// round-trip guard. JSON names every field and holds no pointer
// addresses, so the string is stable across process runs.
func (o Options) Fingerprint() string { return o.key("", 0) }

// ShapeFingerprint is Fingerprint without the per-run fields: two
// Options with equal shape fingerprints build interchangeable machines
// (for a given machine Shape), so it keys the simulator pool (PoolKey).
func (o Options) ShapeFingerprint() string { return o.key("run", 0) }

// KindFingerprint is Fingerprint narrowed to what a kind-k cell runs
// on: the one core configuration kind k builds replaces all four. The
// other kinds' configs cannot change a kind-k outcome, so the run cache
// keys cells by this — an in-order cell under an SST secure mode shares
// the unmitigated in-order result instead of recomputing it.
//
// The run cache keys every request, so keys are memoized per options
// value (see kindKeys). Options with a fault plan are encoded afresh:
// the plan is a pointer, and its contents, not its address, are keyed.
func (o Options) KindFingerprint(k Kind) string {
	if o.Faults != nil {
		return o.key("core", k)
	}
	o.Sink, o.Metrics = nil, nil // hooks: never keyed, never retained
	mk := kindKey{o, k}
	kindKeys.Lock()
	s, ok := kindKeys.m[mk]
	kindKeys.Unlock()
	if ok {
		return s
	}
	s = o.key("core", k)
	kindKeys.Lock()
	if len(kindKeys.m) >= kindKeysCap {
		clear(kindKeys.m)
	}
	kindKeys.m[mk] = s
	kindKeys.Unlock()
	return s
}

// kindKey is one memoized KindFingerprint: options without hooks or a
// fault plan, which compare by value, and the kind.
type kindKey struct {
	o Options
	k Kind
}

// kindKeys memoizes KindFingerprint. It holds at most kindKeysCap keys
// and starts over when full, so a stream of requests that each carry
// their own cycle bound cannot grow it without limit.
var kindKeys = struct {
	sync.Mutex
	m map[kindKey]string
}{m: make(map[kindKey]string)}

const kindKeysCap = 256
