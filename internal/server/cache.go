package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one answer: the graph *instance* (gen — AddGraph
// replacing a name mints a new generation, so a detached old graph can
// never collide with its successor) *at one epoch*, the program and the
// canonical query — one configured layout per depth serves them all. Mutating
// a graph bumps its epoch, so every key minted before the mutation simply
// stops being generated — stale entries are never served, and the mutation
// drops them (dropBefore) rather than let them hold their results and
// encodings until they age out of the LRU.
type cacheKey struct {
	graph     string
	gen       uint64
	epoch     uint64
	program   string
	canonical string
}

// cacheVal is a computed answer. result is the program's Go result value,
// shared by reference with every later hit: results are treated as immutable
// once cached. enc is its JSON encoding, the bytes writeAnswer sends — made
// once, by the first HTTP response that needs it (the miss that computed the
// answer, or the first hit on a primed one); in-process callers never pay.
type cacheVal struct {
	result any
	stats  RunStats

	encOnce sync.Once
	enc     []byte
	encErr  error

	// Guarded by the owning resultCache's mu: whether the LRU holds this
	// value, and how many bytes of enc the encoded-bytes gauge counts for it.
	held    bool
	counted int
}

// resultCache is a mutex-guarded LRU over complete query answers. gauge
// receives the change in encoded bytes held by live entries: added when a
// held entry is first encoded, subtracted when it is evicted or overwritten.
type resultCache struct {
	mu      sync.Mutex
	maxSize int
	order   *list.List // front = most recent; values are *cacheEnt
	byKey   map[cacheKey]*list.Element
	gauge   func(delta int64)
}

type cacheEnt struct {
	key cacheKey
	val *cacheVal
}

func newResultCache(maxSize int, gauge func(delta int64)) *resultCache {
	if maxSize <= 0 {
		return nil // disabled: every method tolerates the nil receiver
	}
	return &resultCache{maxSize: maxSize, order: list.New(), byKey: make(map[cacheKey]*list.Element), gauge: gauge}
}

// encoded returns the JSON encoding of v's result, computed once — the only
// place a result is encoded. The bytes are appendAnswer's (encode.go): byte
// for byte what json.Marshal gives, written without reflection for the
// map-shaped results, into pooled scratch and kept as an exact-size copy. An
// encoding error is as permanent as the bytes would have been: every request
// for the answer gets it again, with json.Marshal's message.
func (c *resultCache) encoded(v *cacheVal) ([]byte, error) {
	v.encOnce.Do(func() {
		sc := answerScratchPool.Get().(*answerScratch)
		buf, err := appendAnswer(sc.buf[:0], v.result, sc)
		if v.encErr = err; err == nil {
			v.enc = make([]byte, len(buf))
			copy(v.enc, buf)
		}
		sc.buf = buf[:0]
		answerScratchPool.Put(sc)
		if c == nil {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if v.held {
			v.counted = len(v.enc)
			c.gauge(int64(v.counted))
		}
	})
	return v.enc, v.encErr
}

// drop marks v as no longer held. Callers hold c.mu.
func (c *resultCache) drop(v *cacheVal) {
	v.held = false
	c.gauge(-int64(v.counted))
	v.counted = 0
}

// remove takes el's entry out of the cache. Callers hold c.mu.
func (c *resultCache) remove(el *list.Element) {
	ent := c.order.Remove(el).(*cacheEnt)
	delete(c.byKey, ent.key)
	c.drop(ent.val)
}

// dropBefore removes the answers graph instance (graph, gen) computed before
// epoch: no key names them any more.
func (c *resultCache) dropBefore(graph string, gen, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*cacheEnt).key; k.graph == graph && k.gen == gen && k.epoch < epoch {
			c.remove(el)
		}
		el = next
	}
}

func (c *resultCache) get(k cacheKey) (*cacheVal, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEnt).val, true
}

func (c *resultCache) put(k cacheKey, v *cacheVal) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		ent := el.Value.(*cacheEnt)
		c.drop(ent.val)
		ent.val = v
		c.order.MoveToFront(el)
	} else {
		c.byKey[k] = c.order.PushFront(&cacheEnt{key: k, val: v})
	}
	v.held = true
	for c.order.Len() > c.maxSize {
		c.remove(c.order.Back())
	}
}

// len reports the live entry count (testing hook).
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
