package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Version is the envelope format version. Entries written under a different
// version read as misses, so a format change invalidates the shared store
// cleanly instead of feeding stale payloads to newer replicas.
const Version = "flowsyn-store/v1"

// envelope is the on-disk entry format: the payload wrapped with enough
// metadata to reject foreign, damaged or outdated entries on read.
type envelope struct {
	Version string `json:"version"`
	// Key is the full cache key the entry was stored under; Get rejects an
	// entry whose key does not match (hash aliasing can only come from a
	// bug, and a wrong payload must never be served).
	Key     string          `json:"key"`
	Created string          `json:"created"`
	Payload json.RawMessage `json:"payload"`
}

// leaseDoc is the on-disk lease format.
type leaseDoc struct {
	Owner string `json:"owner"`
	// Expires is the steal horizon (RFC3339Nano); heartbeats push it
	// forward, so it only passes when the owner stopped heartbeating.
	Expires string `json:"expires"`
}

// Disk is the reference Store: a sharded directory tree shared between
// replicas (typically on one host or a shared filesystem). Entries are
// published with write-then-rename, so concurrent writers and readers of one
// key are safe without locks.
type Disk struct {
	root     string
	leaseTTL time.Duration
}

// DiskOptions tunes a disk store.
type DiskOptions struct {
	// LeaseTTL is the single-flight lease expiry horizon (see
	// DefaultLeaseTTL); 0 selects the default.
	LeaseTTL time.Duration
}

// OpenDisk opens (creating if needed) a disk store rooted at dir.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	root := filepath.Join(dir, "v1")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Disk{root: root, leaseTTL: opts.LeaseTTL}, nil
}

// entryPath returns the sharded path of key's entry file. Keys are hashed:
// they contain option separators unfit for filenames, and hashing spreads
// entries uniformly over the 256 shard directories.
func (d *Disk) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(d.root, name[:2], name+".json")
}

func (d *Disk) leasePath(key string) string {
	return d.entryPath(key) + ".lease"
}

// Get implements Store. Anything that prevents decoding a valid, matching
// envelope — missing file, truncated write from a crashed replica, version
// bump, key mismatch — is a miss.
func (d *Disk) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(d.entryPath(key))
	if err != nil {
		return nil, ErrNotFound
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, ErrNotFound
	}
	if env.Version != Version || env.Key != key || len(env.Payload) == 0 {
		return nil, ErrNotFound
	}
	return env.Payload, nil
}

// Put implements Store: marshal the envelope, write it to a temp file in the
// shard directory, fsync-free rename into place. Readers see either the old
// entry or the complete new one, never a torn write.
func (d *Disk) Put(key string, payload []byte) error {
	env := envelope{
		Version: Version,
		Key:     key,
		Created: time.Now().UTC().Format(time.RFC3339Nano),
		Payload: json.RawMessage(payload),
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	return atomicWrite(d.entryPath(key), data)
}

// atomicWrite publishes data at path via a same-directory temp file and
// rename.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := writeTemp(dir, data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeTemp writes data to a fresh temp file in dir and returns its path.
func writeTemp(dir string, data []byte) (string, error) {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// Claim implements Store. The lease doc is written to a temp file in the
// shard directory and hard-linked to the lease path. The link fails when the
// lease exists, so exactly one replica wins a cold key, and a lease file is
// never visible without its content. An expired lease (crashed claimant) is
// stolen by removing it and retrying once.
func (d *Disk) Claim(key, owner string) (Lease, error) {
	path := d.leasePath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	doc, _ := json.Marshal(leaseDoc{
		Owner:   owner,
		Expires: time.Now().Add(d.leaseTTL).UTC().Format(time.RFC3339Nano),
	})
	tmp, err := writeTemp(dir, doc)
	if err != nil {
		return nil, fmt.Errorf("store: write lease %s: %w", key, err)
	}
	defer os.Remove(tmp)
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(tmp, path)
		if err == nil {
			l := &diskLease{path: path, owner: owner, ttl: d.leaseTTL, stop: make(chan struct{})}
			go l.heartbeat()
			return l, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue // released since the link failed: retry it
		}
		if err == nil && !leaseExpired(data) {
			return nil, ErrLeaseHeld
		}
		// The claimant died: its heartbeat stopped and the lease passed its
		// expiry horizon. Steal by removing it and retrying the link.
		os.Remove(path)
	}
	return nil, ErrLeaseHeld
}

// leaseExpired reports whether a lease doc is stale: corrupt leases count as
// expired, so they cannot wedge a key forever.
func leaseExpired(data []byte) bool {
	var doc leaseDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return true
	}
	exp, err := time.Parse(time.RFC3339Nano, doc.Expires)
	if err != nil {
		return true
	}
	return time.Now().After(exp)
}

// Close implements Store. The disk backend holds no resources beyond leases,
// which their owners release individually.
func (d *Disk) Close() error { return nil }

// diskLease heartbeats its file every ttl/3 so the lease expires only when
// the owner process died.
type diskLease struct {
	path  string
	owner string
	ttl   time.Duration

	once sync.Once
	stop chan struct{}
}

func (l *diskLease) heartbeat() {
	t := time.NewTicker(l.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			doc, _ := json.Marshal(leaseDoc{
				Owner:   l.owner,
				Expires: time.Now().Add(l.ttl).UTC().Format(time.RFC3339Nano),
			})
			// Atomic replace: a reader mid-steal never sees a torn lease.
			// If the file vanished (forced steal), the rename recreates it —
			// the window is the owner's own TTL violation, accepted as
			// duplicate work, never wrong results.
			atomicWrite(l.path, doc)
		}
	}
}

func (l *diskLease) Release() {
	l.once.Do(func() {
		close(l.stop)
		os.Remove(l.path)
	})
}
