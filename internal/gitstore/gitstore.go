// Package gitstore implements a minimal content-addressed version store
// standing in for the git repositories gem5art artifacts reference. It
// provides the three properties gem5art relies on:
//
//   - every repository has a URL that identifies where it came from,
//   - every state of the tree has a stable revision hash, and
//   - any revision can be checked out again byte-for-byte, so an
//     experiment recorded as (url, hash) is reproducible.
//
// Revisions form a linear history per repository (branches are out of
// scope for gem5art's usage, which always records a single revision).
package gitstore

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Tree is a snapshot of a repository's files: path -> content.
type Tree map[string][]byte

// commit is one recorded state of a repository.
type commit struct {
	hash string // revision hash (hex SHA-1 over the tree and metadata)
	tree Tree
}

// Repo is a versioned tree of files identified by a URL.
type Repo struct {
	mu     sync.RWMutex
	url    string
	head   *commit            // the latest commit, nil when empty
	byHash map[string]*commit // hash -> commit
}

// NewRepo creates an empty repository with the given origin URL.
func NewRepo(url string) *Repo {
	return &Repo{url: url, byHash: make(map[string]*commit)}
}

// URL returns the repository's origin URL.
func (r *Repo) URL() string { return r.url }

// Commit records a snapshot of the given tree and returns its revision
// hash. The tree is deep-copied; later mutations do not affect history.
func (r *Repo) Commit(tree Tree, message string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := ""
	if r.head != nil {
		parent = r.head.hash
	}
	c := &commit{tree: copyTree(tree)}
	c.hash = hashCommit(r.url, parent, message, c.tree)
	r.head = c
	r.byHash[c.hash] = c
	return c.hash
}

// Checkout returns a deep copy of the tree at the given revision. The
// revision may be abbreviated to a unique prefix, mirroring git's
// short-hash checkout used in the paper's Figure 3.
func (r *Repo) Checkout(rev string) (Tree, error) {
	c, err := r.resolve(rev)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return copyTree(c.tree), nil
}

// RevParse resolves a possibly abbreviated revision to its full hash.
func (r *Repo) RevParse(rev string) (string, error) {
	c, err := r.resolve(rev)
	if err != nil {
		return "", err
	}
	return c.hash, nil
}

func (r *Repo) resolve(rev string) (*commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rev == "" || rev == "HEAD" {
		if r.head == nil {
			return nil, fmt.Errorf("gitstore: %s: empty repository", r.url)
		}
		return r.head, nil
	}
	if c, ok := r.byHash[rev]; ok {
		return c, nil
	}
	var found *commit
	for h, c := range r.byHash {
		if strings.HasPrefix(h, rev) {
			if found != nil {
				return nil, fmt.Errorf("gitstore: %s: ambiguous revision %q", r.url, rev)
			}
			found = c
		}
	}
	if found == nil {
		return nil, fmt.Errorf("gitstore: %s: unknown revision %q", r.url, rev)
	}
	return found, nil
}

func copyTree(t Tree) Tree {
	cp := make(Tree, len(t))
	for p, data := range t {
		b := make([]byte, len(data))
		copy(b, data)
		cp[p] = b
	}
	return cp
}

func hashCommit(url, parent, message string, tree Tree) string {
	h := sha1.New()
	fmt.Fprintf(h, "url %s\nparent %s\nmessage %s\n", url, parent, message)
	paths := make([]string, 0, len(tree))
	for p := range tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "file %s %d\n", p, len(tree[p]))
		h.Write(tree[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}
