package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// resultCache is the bounded LRU of successful run artifacts, keyed on the
// request key (resolved run identity + attachment knobs). It also knows how
// to persist itself: Drain writes an index plus one content-addressed CSV
// artifact per distinct result, and a restarted service loads them back, so
// warm keys answer without executing anything.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *Result
}

// newResultCache builds a cache holding up to capacity entries; capacity
// < 0 disables caching entirely (every get misses, every put is dropped).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

func (c *resultCache) get(key string) *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

func (c *resultCache) put(key string, res *Result) {
	if c.cap < 0 || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheIndex is the on-disk schema of the persisted cache.
type cacheIndex struct {
	Schema  int              `json:"schema"`
	Entries []cacheIndexItem `json:"entries"`
}

// cacheSchema is 2 since artifacts are content-addressed; an index of the
// numbered-file schema 1 warms to empty.
const cacheSchema = 2

// cacheIndexItem names its artifact by content: the file is <SHA256>.csv
// and holds Size bytes with that digest, or the entry is not loaded.
type cacheIndexItem struct {
	Key    string  `json:"key"`
	SHA256 string  `json:"sha256"`
	Size   int     `json:"bytes"`
	Wall   float64 `json:"wall_seconds"`
	Seq    float64 `json:"seq_seconds,omitempty"`
}

const (
	indexName   = "index.json"
	artifactExt = ".csv"
	tempPattern = "cache-*.tmp"
)

// digestRE is the shape of a digest, and so of an artifact's base name: a
// name made of one cannot leave the directory whatever the index says.
var digestRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// writeViaTemp puts data at dir/name through a temporary file and a rename,
// so that the name never holds part of a write.
func writeViaTemp(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 is not what the cache's files had
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name()) // best effort; the next save sweeps temporaries
	}
	return err
}

// save persists the cache to dir in three steps, each leaving a directory
// load is correct on if the process dies after it: the artifacts, named by
// the SHA-256 of their bytes and renamed into place, so a name never holds
// anything but its content and writing one disturbs no other; then the
// index, renamed over its predecessor; then the removal of artifacts and
// temporaries the new index does not name. Until the index rename the old
// index stands, and every artifact it names is still there unchanged.
// Entries are listed oldest-first so a reload reconstructs the recency
// order.
func (c *resultCache) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	idx, err := c.writeArtifacts(dir)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	if err := writeViaTemp(dir, indexName, append(blob, '\n')); err != nil {
		return err
	}
	// Sweep: other files in the directory are not the cache's and stay.
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	named := make(map[string]bool, len(idx.Entries))
	for _, item := range idx.Entries {
		named[item.SHA256] = true
	}
	for _, f := range files {
		digest, isCSV := strings.CutSuffix(f.Name(), artifactExt)
		stale := isCSV && digestRE.MatchString(digest) && !named[digest]
		if temp, _ := filepath.Match(tempPattern, f.Name()); stale || temp {
			if err := os.Remove(filepath.Join(dir, f.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeArtifacts is save's first step; it returns the index that names
// what it wrote.
func (c *resultCache) writeArtifacts(dir string) (*cacheIndex, error) {
	idx := &cacheIndex{Schema: cacheSchema}
	var artifacts [][]byte
	c.mu.Lock()
	for el := c.ll.Back(); el != nil; el = el.Prev() { // oldest first
		e := el.Value.(*cacheEntry)
		sum := sha256.Sum256(e.res.CSV)
		idx.Entries = append(idx.Entries, cacheIndexItem{
			Key: e.key, SHA256: hex.EncodeToString(sum[:]), Size: len(e.res.CSV),
			Wall: e.res.Wall, Seq: e.res.Seq,
		})
		artifacts = append(artifacts, e.res.CSV)
	}
	c.mu.Unlock()
	for i, item := range idx.Entries {
		if err := writeViaTemp(dir, item.SHA256+artifactExt, artifacts[i]); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// load warms the cache from a directory written by save. Best effort, and
// never wrong: a missing or damaged index starts cold, and an entry is
// skipped unless its artifact is there, in the directory, with the size
// and the digest the index records — a truncated or altered file is a
// miss, not a result.
func (c *resultCache) load(dir string) {
	blob, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		return
	}
	var idx cacheIndex
	if err := json.Unmarshal(blob, &idx); err != nil || idx.Schema != cacheSchema {
		return
	}
	for _, item := range idx.Entries { // oldest first, matching save
		if !digestRE.MatchString(item.SHA256) {
			continue
		}
		csv, err := os.ReadFile(filepath.Join(dir, item.SHA256+artifactExt))
		if err != nil || len(csv) != item.Size {
			continue
		}
		if sum := sha256.Sum256(csv); hex.EncodeToString(sum[:]) != item.SHA256 {
			continue
		}
		c.put(item.Key, &Result{Wall: item.Wall, Seq: item.Seq, CSV: csv})
	}
}
