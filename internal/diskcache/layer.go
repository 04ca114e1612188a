package diskcache

// Layer couples a Store with one value type's wire form into the typed
// disk tier a Cache layers itself over. A nil *Layer is a valid,
// always-missing tier, so the cache needs no "is persistence on?"
// branches.
type Layer[V any] struct {
	store *Store
	// encode serializes a value into its durable payload.
	encode func(V) ([]byte, error)
	// decode reconstructs a value from the payload stored under key.
	// Because the payload's integrity checksum cannot prove the payload
	// belongs to the *name* it was read under, decode receives the key
	// the caller asked for and must fail unless the payload denotes it (a
	// file renamed onto the wrong key must decode to an error, never to a
	// wrong answer served under the right key).
	decode func(key string, data []byte) (V, error)
}

// NewLayer wraps store with a value type's encode/decode pair.
func NewLayer[V any](store *Store, encode func(V) ([]byte, error), decode func(key string, data []byte) (V, error)) *Layer[V] {
	return &Layer[V]{store: store, encode: encode, decode: decode}
}

// Get loads and decodes the value stored under key. A payload that
// reads back but fails to decode (schema drift the version stamp missed,
// key disagreement) is deleted like any other corrupt entry.
func (l *Layer[V]) Get(key string) (V, bool) {
	var zero V
	if l == nil {
		return zero, false
	}
	data, ok := l.store.Get(key)
	if !ok {
		return zero, false
	}
	v, err := l.decode(key, data)
	if err != nil {
		l.store.Delete(key)
		l.store.count(func() { l.store.dropped++; l.store.hits--; l.store.misses++ })
		return zero, false
	}
	return v, true
}

// Put encodes and persists v under key; failures are deliberately
// swallowed after accounting — persistence is an accelerator, never a
// correctness dependency, and a full or read-only disk must not fail
// the request that tried to warm it.
func (l *Layer[V]) Put(key string, v V) {
	if l == nil {
		return
	}
	data, err := l.encode(v)
	if err != nil {
		return
	}
	_ = l.store.Put(key, data)
}

// Stats exposes the underlying store counters.
func (l *Layer[V]) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return l.store.Stats()
}
