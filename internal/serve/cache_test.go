package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// csvOf is a distinguishable artifact for a key.
func csvOf(key string) []byte {
	return []byte("t,rank,kind\n0,0," + key + "\n")
}

// filledCache holds one result per key, put in order.
func filledCache(capacity int, keys ...string) *resultCache {
	c := newResultCache(capacity)
	for _, k := range keys {
		c.put(k, &Result{Wall: 1, CSV: csvOf(k)})
	}
	return c
}

// loaded warms a fresh cache from dir.
func loaded(dir string) *resultCache {
	c := newResultCache(16)
	c.load(dir)
	return c
}

// checkLoaded requires every key the cache holds to carry its own bytes,
// and the wanted keys to be held.
func checkLoaded(t *testing.T, c *resultCache, want ...string) {
	t.Helper()
	for key, el := range c.byKey {
		if got := el.Value.(*cacheEntry).res.CSV; !bytes.Equal(got, csvOf(key)) {
			t.Errorf("key %s warmed with another artifact's bytes: %q", key, got)
		}
	}
	for _, key := range want {
		if c.get(key) == nil {
			t.Errorf("key %s not warmed", key)
		}
	}
}

func artifacts(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifacts in %s: %v", dir, err)
	}
	return files
}

// TestCacheKillMidPersist is the crash the numbered artifacts did not
// survive: a second save reorders and extends the cache, and the process
// dies after the artifacts are written but before the index is renamed.
// The index that stands is the first save's, and what it names must still
// be what it named.
func TestCacheKillMidPersist(t *testing.T) {
	t.Run("old index restored over a later save", func(t *testing.T) {
		dir := t.TempDir()
		c := filledCache(16, "k1", "k2")
		if err := c.save(dir); err != nil {
			t.Fatal(err)
		}
		index := filepath.Join(dir, "index.json")
		old, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		c.get("k1") // k1 is now the most recent
		c.put("k3", &Result{Wall: 1, CSV: csvOf("k3")})
		if err := c.save(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(index, old, 0o644); err != nil {
			t.Fatal(err)
		}
		checkLoaded(t, loaded(dir), "k1", "k2")
	})
	t.Run("killed between artifacts and index, after an eviction", func(t *testing.T) {
		dir := t.TempDir()
		c := filledCache(2, "k1", "k2")
		if err := c.save(dir); err != nil {
			t.Fatal(err)
		}
		c.put("k3", &Result{Wall: 1, CSV: csvOf("k3")}) // evicts k1
		if _, err := c.writeArtifacts(dir); err != nil {
			t.Fatal(err)
		}
		checkLoaded(t, loaded(dir), "k1", "k2")
		// The save that does complete leaves only what its index names.
		if err := c.save(dir); err != nil {
			t.Fatal(err)
		}
		checkLoaded(t, loaded(dir), "k2", "k3")
		if n := len(artifacts(t, dir)); n != 2 {
			t.Errorf("%d artifacts after the sweep, want 2", n)
		}
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
			t.Errorf("temporaries left behind: %v", tmp)
		}
	})
}

// TestCacheLoadStaysInDirectory: whatever an index names, load reads
// nothing outside the cache directory.
func TestCacheLoadStaysInDirectory(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	secret := []byte("not a cached result\n")
	if err := os.WriteFile(filepath.Join(root, "secret.txt"), secret, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, index := range []string{
		`{"schema":1,"entries":[{"key":"k","file":"../secret.txt"}]}`,
		fmt.Sprintf(`{"schema":2,"entries":[{"key":"k","file":"../secret.txt","sha256":"../secret.txt","bytes":%d}]}`, len(secret)),
		fmt.Sprintf(`{"schema":2,"entries":[{"key":"k","sha256":"../secret","bytes":%d}]}`, len(secret)),
	} {
		if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(index), 0o644); err != nil {
			t.Fatal(err)
		}
		if c := loaded(dir); c.len() != 0 {
			t.Errorf("index %s warmed %d entries: %q", index, c.len(), c.get("k").CSV)
		}
	}
}

// TestCacheLoadRejectsDamage: a truncated or altered artifact is a miss,
// its neighbours still load, and a damaged index warms to empty.
func TestCacheLoadRejectsDamage(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"extended":  func(b []byte) []byte { return append(b, '\n') },
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := filledCache(16, "k1", "k2").save(dir); err != nil {
				t.Fatal(err)
			}
			var hit string
			for _, path := range artifacts(t, dir) {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(b, csvOf("k1")) {
					hit = path
					if err := os.WriteFile(path, mangle(b), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if hit == "" {
				t.Fatal("k1's artifact not found")
			}
			c := loaded(dir)
			if res := c.get("k1"); res != nil {
				t.Errorf("damaged artifact served: %q", res.CSV)
			}
			checkLoaded(t, c, "k2")
		})
	}
	for name, index := range map[string]string{
		"empty":        "",
		"cut short":    `{"schema":2,"entries":[{"key":"k1","sha2`,
		"not json":     "\x00\xff\x00",
		"wrong shape":  `{"schema":2,"entries":"k1"}`,
		"other schema": `{"schema":3,"entries":[]}`,
	} {
		t.Run("index "+name, func(t *testing.T) {
			dir := t.TempDir()
			if err := filledCache(16, "k1").save(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(index), 0o644); err != nil {
				t.Fatal(err)
			}
			if c := loaded(dir); c.len() != 0 {
				t.Errorf("damaged index warmed %d entries", c.len())
			}
		})
	}
}

// FuzzCacheLoad: over a directory a save wrote, arbitrary index bytes and
// one arbitrary artifact never panic load, never make it read outside the
// directory, and never yield bytes other than what the save stored.
func FuzzCacheLoad(f *testing.F) {
	root := f.TempDir()
	dir := filepath.Join(root, "cache")
	outside := []byte("t,rank,kind\n0,0,outside\n")
	if err := os.WriteFile(filepath.Join(root, "outside.csv"), outside, 0o644); err != nil {
		f.Fatal(err)
	}
	saved := filledCache(16, "k1", "k2")
	if err := saved.save(dir); err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		f.Fatal(err)
	}
	victim := artifacts(f, dir)[0]
	pristine, err := os.ReadFile(victim)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index, pristine)
	f.Add(index, pristine[:len(pristine)-1])
	f.Add([]byte(`{"schema":2,"entries":[{"key":"k","sha256":"../outside","bytes":24}]}`), outside)
	f.Add([]byte(`{"schema":1,"entries":[{"key":"k","file":"../outside.csv"}]}`), outside)
	f.Add(bytes.Replace(index, []byte(`"k1"`), []byte(`"k2"`), 1), pristine)
	f.Fuzz(func(t *testing.T, index, artifact []byte) {
		if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victim, artifact, 0o644); err != nil {
			t.Fatal(err)
		}
		c := loaded(dir)
		for key, el := range c.byKey {
			got := el.Value.(*cacheEntry).res.CSV
			if !bytes.Equal(got, csvOf("k1")) && !bytes.Equal(got, csvOf("k2")) {
				t.Fatalf("key %q warmed with bytes no save stored: %q", key, got)
			}
		}
	})
}
