package transformer

import "slices"

// This file is the prompt-prefix KV cache of BatchedPredictor. The model is
// causal, so the keys and values at position p are a pure function of tokens
// [0, p]: two prompts that open with the same system prompt compute the same
// KV rows, bit for bit, and PR 4's parity suite pins that those rows do not
// depend on how the prompt was chunked. The cache keeps byte copies of such
// rows and restores them into a new sequence instead of prefilling them.
//
// Granularity is the sixteen-position key-pack block: for one layer and
// head, a block's key rows, value rows and interleaved key pack are three
// contiguous runs of 16·headDim floats, so a block moves with three copies
// per head. Blocks are named by a chain hash h_i = H(h_{i-1}, tokens of
// block i) and linked to their predecessor's entry; a lookup accepts a block
// only when its sixteen stored token ids equal the prompt's and its parent is
// the entry the walk accepted one block earlier. By induction from the root
// an accepted chain matches the prompt token for token, so a hash collision
// costs a miss and can never change an output.
//
// Restoring copies (copy-on-hit) rather than sharing pages: weightedValueSum
// reduces a head's values with one DotInterleaved16 call over the contiguous
// value rows, and splitting that reduction across non-contiguous pages would
// change its floating-point association. A restored sequence is an ordinary
// contiguous one, so Step, Prefill, PrefillAll, Rewind and every kernel run
// on it unchanged.
//
// Admission is by second sighting: the first time a chain hash is offered it
// is only remembered in a bounded table; the block is copied in the second
// time. Prompts nobody repeats therefore cost a few probes and no copies.
// Storage is bounded by a constant byte budget; eviction is least recently
// used, and because using a block also uses its ancestors (deepest first) a
// block is never more recent than its parent, so chains are trimmed from the
// tail and a live entry's parent is always live. An evicted block's buffer
// goes straight to the block that displaced it.
//
// The cache belongs to its predictor, whose only caller is the serving loop
// goroutine, so nothing here locks.

const (
	// prefixBlock is the cache granularity in positions: one interleaved
	// key-pack block (see packKeyRow).
	prefixBlock = 16
	// prefixCacheBytes is each predictor's block-storage budget.
	prefixCacheBytes = 64 << 20
	// prefixSeenSlots sizes the first-sighting table (a power of two): a
	// direct-mapped array of chain hashes, where a newer sighting overwrites
	// an older one in the same slot.
	prefixSeenSlots = 1 << 14
)

// prefixEntry is one cached block: the KV rows of the sixteen positions that
// follow its parent's, for the token chain ending in tokens.
type prefixEntry struct {
	hash   uint64
	parent *prefixEntry // the preceding block's entry; nil for a prompt's first block
	tokens [prefixBlock]int
	data   []float64 // batchSeq.copyBlock layout; nil once evicted

	newer, older *prefixEntry // recency list
}

type prefixCache struct {
	blockFloats int // floats in one block's buffer
	capBlocks   int // blocks the byte budget admits
	blocks      map[uint64]*prefixEntry
	lru         prefixEntry             // list sentinel: lru.older is the most recent entry, lru.newer the least
	seen        [prefixSeenSlots]uint64 // first-sighting table, indexed by the hash's low bits
	evictions   uint64

	// hash is chainHash; a field so a test can force collisions.
	hash func(parent uint64, tokens []int) uint64
}

func newPrefixCache(cfg Config) *prefixCache {
	runs := 3 // keys, values, key pack
	if cfg.keyPackLen(cfg.Dim/cfg.Heads) == 0 {
		runs = 2
	}
	c := &prefixCache{
		blockFloats: cfg.Layers * runs * prefixBlock * cfg.Dim,
		blocks:      map[uint64]*prefixEntry{},
		hash:        chainHash,
	}
	c.capBlocks = prefixCacheBytes / (8 * c.blockFloats)
	c.lru.newer, c.lru.older = &c.lru, &c.lru
	return c
}

// chainHash names a block by its tokens and its predecessor's name: an
// FNV-style multiply-xor over the ids with a splitmix64 finish, so the low
// bits that index the sighting table are well mixed.
func chainHash(parent uint64, tokens []int) uint64 {
	h := parent ^ 0x9e3779b97f4a7c15
	for _, t := range tokens {
		h = (h ^ uint64(t)) * 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// match returns the entry caching the block named h whose previous block is
// parent and whose tokens are tokens, or nil.
func (c *prefixCache) match(h uint64, parent *prefixEntry, tokens []int) *prefixEntry {
	e := c.blocks[h]
	if e == nil || e.parent != parent || !slices.Equal(e.tokens[:], tokens) {
		return nil
	}
	return e
}

// use marks e and its ancestors as just used, deepest first, which leaves
// every block ahead of its descendants in the recency list.
func (c *prefixCache) use(e *prefixEntry) {
	for ; e != nil; e = e.parent {
		e.newer.older, e.older.newer = e.older, e.newer
		c.pushFront(e)
	}
}

func (c *prefixCache) pushFront(e *prefixEntry) {
	e.newer, e.older = &c.lru, c.lru.older
	e.older.newer, c.lru.older = e, e
}

// secondSighting records that h was offered and reports whether it had been
// offered before (and not since overwritten or admitted).
func (c *prefixCache) secondSighting(h uint64) bool {
	slot := &c.seen[h&(prefixSeenSlots-1)]
	if *slot == h {
		*slot = 0
		return true
	}
	*slot = h
	return false
}

// buffer returns storage for one more block: newly allocated while the
// budget lasts, then taken over from the least recently used block, which is
// evicted. It returns nil when that block is keep — a chain longer than the
// budget does not trim its own tail to grow — or when the budget admits no
// block at all.
func (c *prefixCache) buffer(keep *prefixEntry) []float64 {
	if len(c.blocks) < c.capBlocks {
		return make([]float64, c.blockFloats)
	}
	e := c.lru.newer
	if e == &c.lru || e == keep {
		return nil
	}
	e.newer.older, e.older.newer = e.older, e.newer
	delete(c.blocks, e.hash)
	buf := e.data
	e.data = nil
	c.evictions++
	return buf
}

// offer presents block depth of s's attached prompt, whose KV rows s holds,
// and returns the entry now caching it, or nil when it stays uncached: on
// its first sighting, when its parent is not cached (an entry is reachable
// only through its parent), when another chain holds its hash, or when the
// budget has no room for it.
func (c *prefixCache) offer(s *batchSeq, depth int, parent *prefixEntry) *prefixEntry {
	h := s.hashes[depth]
	tokens := s.prompt[depth*prefixBlock : (depth+1)*prefixBlock]
	if c.blocks[h] != nil {
		e := c.match(h, parent, tokens)
		c.use(e)
		return e
	}
	orphan := depth > 0 && (parent == nil || parent.data == nil)
	if !c.secondSighting(h) || orphan {
		return nil
	}
	buf := c.buffer(parent)
	if buf == nil {
		return nil
	}
	e := &prefixEntry{hash: h, parent: parent, data: buf}
	copy(e.tokens[:], tokens)
	s.copyBlock(buf, depth, false)
	c.blocks[h] = e
	c.pushFront(e)
	c.use(parent)
	return e
}

// copyBlock moves block b of the sequence's KV state — per layer and head,
// the block's key rows, value rows and key pack, in that order — out to buf,
// or with restore set, from buf back in.
func (s *batchSeq) copyBlock(buf []float64, b int, restore bool) {
	for li := range s.keys {
		for hi, kc := range s.keys[li] {
			run := prefixBlock * kc.Shape[1]
			for _, kv := range [...][]float64{kc.Data, s.vals[li][hi].Data, s.kpacks[li][hi]} {
				if len(kv) == 0 {
					continue // sparse attention keeps no key pack
				}
				if restore {
					copy(kv[b*run:(b+1)*run], buf)
				} else {
					copy(buf, kv[b*run:(b+1)*run])
				}
				buf = buf[run:]
			}
		}
	}
}

// Attach tells the predictor the whole prompt a newly added sequence is about
// to prefill, restores the longest cached block-aligned prefix of it into the
// sequence's KV cache, and returns the number of positions restored: the
// caller prefills ids[n:] as usual. At least one token is always left to
// prefill, since the first sampled token needs that position's logits. From
// then on every full block of the prompt that Prefill completes is offered
// to the cache. A sequence that is never attached neither reads nor feeds the
// cache.
//
// ids must be the tokens exactly as they will be fed from position 0; a
// prompt longer than the window (which Prefill would truncate keep-last,
// shifting every position) is left unattached. Attach panics on an unknown
// sequence and on one that already holds positions or a prompt.
func (bp *BatchedPredictor) Attach(id int, ids []int) int {
	s := bp.seq(id)
	if s.n != 0 || len(s.prompt) != 0 {
		panic("transformer: Attach on a sequence that is not new")
	}
	if len(ids) > bp.m.Cfg.Window {
		return 0
	}
	c := bp.prefix
	s.prompt = append(s.prompt, ids...)
	h := uint64(0)
	for b := 0; (b+1)*prefixBlock <= len(ids); b++ {
		h = c.hash(h, ids[b*prefixBlock:(b+1)*prefixBlock])
		s.hashes = append(s.hashes, h)
	}
	// Walk the chain from the root while the cache has it, stopping short of
	// the block that holds the prompt's last token.
	keep := (len(ids) - 1) / prefixBlock
	for b, h := range s.hashes[:keep] {
		e := c.match(h, s.tail, ids[b*prefixBlock:(b+1)*prefixBlock])
		if e == nil {
			break
		}
		s.copyBlock(e.data, b, true)
		s.tail = e
		s.offered = b + 1
	}
	c.use(s.tail)
	s.n = s.offered * prefixBlock
	s.fed = s.n
	return s.n
}

// publish offers the cache every full block of s's attached prompt that the
// pass which just ingested chunk at position start completed. Only positions
// Prefill wrote from the prompt's own tokens, contiguously from the restored
// prefix, count (s.fed): a block containing anything else is never offered.
func (bp *BatchedPredictor) publish(s *batchSeq, start int, chunk []int) {
	if start != s.fed || start >= len(s.prompt) {
		return
	}
	n := min(len(chunk), len(s.prompt)-start)
	if !slices.Equal(chunk[:n], s.prompt[start:start+n]) {
		return
	}
	s.fed += n
	for ; (s.offered+1)*prefixBlock <= s.fed; s.offered++ {
		s.tail = bp.prefix.offer(s, s.offered, s.tail)
	}
}

// PrefixBlocks returns the number of blocks the prefix cache holds now and
// the number it has evicted to make room since the predictor was built.
func (bp *BatchedPredictor) PrefixBlocks() (resident int, evicted uint64) {
	return len(bp.prefix.blocks), bp.prefix.evictions
}
