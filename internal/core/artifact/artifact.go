// Package artifact implements gem5art's artifact system (§IV-B of the
// paper): every object that goes into or comes out of a gem5 run — the
// simulator binary, its source repository, kernels, disk images, run
// scripts, results — is registered with its provenance (the command that
// created it, its location, its inputs) and identified by a content hash.
// Artifacts are stored in the document database, deduplicated by hash,
// and their files uploaded to the database's file store unless already
// present.
package artifact

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"gem5art/internal/database"
	"gem5art/internal/gitstore"
)

// Collection is the database collection artifacts live in.
const Collection = "artifacts"

// GitInfo records the repository identity of an artifact, allowing the
// artifact's exact version to be communicated to others who do not have
// access to the user's database.
type GitInfo struct {
	URL  string
	Hash string
}

// Artifact is one registered object.
type Artifact struct {
	ID            string // UUID
	Name          string
	Typ           string // e.g. "gem5 binary", "disk image", "kernel"
	Command       string // command used to create the artifact
	CWD           string // directory the command ran in
	Path          string // location of the artifact
	Documentation string
	Hash          string // MD5 of content, or git revision hash
	Git           GitInfo
	InputIDs      []string // IDs of artifacts this one was built from
}

// Options parameterizes registration, mirroring the attributes of
// Figure 3 in the paper.
type Options struct {
	Command       string
	Typ           string
	Name          string
	CWD           string
	Path          string
	Documentation string
	Inputs        []*Artifact

	// Exactly one content source:
	Content []byte         // a file artifact: bytes stored in the DB
	Repo    *gitstore.Repo // a repository artifact
	Rev     string         // revision within Repo ("" or "HEAD" = head)
}

// Registry registers and looks up artifacts against a database.
type Registry struct {
	db database.Store
}

// NewRegistry returns a registry backed by db, installing the uniqueness
// index the paper requires ("duplicate artifacts are not permitted in
// the database").
func NewRegistry(db database.Store) *Registry {
	c := db.Collection(Collection)
	c.CreateUniqueIndex("hash", "name")
	return &Registry{db: db}
}

// DB exposes the backing database (runs reference it too).
func (r *Registry) DB() database.Store { return r.db }

// NewUUID returns a random RFC-4122-shaped identifier.
func NewUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the kernel's CSPRNG failing is not recoverable
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%s-%s-%s-%s-%s",
		hex.EncodeToString(b[0:4]), hex.EncodeToString(b[4:6]),
		hex.EncodeToString(b[6:8]), hex.EncodeToString(b[8:10]),
		hex.EncodeToString(b[10:16]))
}

// Register registers an artifact. Registration is idempotent: if an
// artifact with the same hash and name already exists with identical
// attributes, the existing artifact is returned; if attributes conflict,
// registration fails — the same content cannot claim two provenances.
func (r *Registry) Register(o Options) (*Artifact, error) {
	if o.Name == "" || o.Typ == "" {
		return nil, fmt.Errorf("artifact: name and typ are required")
	}
	if o.Content != nil && o.Repo != nil {
		return nil, fmt.Errorf("artifact: %s: both Content and Repo given", o.Name)
	}
	a := &Artifact{
		ID:            NewUUID(),
		Name:          o.Name,
		Typ:           o.Typ,
		Command:       o.Command,
		CWD:           o.CWD,
		Path:          o.Path,
		Documentation: o.Documentation,
	}
	for _, in := range o.Inputs {
		if in == nil {
			return nil, fmt.Errorf("artifact: %s: nil input", o.Name)
		}
		a.InputIDs = append(a.InputIDs, in.ID)
	}
	switch {
	case o.Repo != nil:
		rev, err := o.Repo.RevParse(o.Rev)
		if err != nil {
			return nil, fmt.Errorf("artifact: %s: %w", o.Name, err)
		}
		a.Hash = rev
		a.Git = GitInfo{URL: o.Repo.URL(), Hash: rev}
	case o.Content != nil:
		a.Hash = database.HashBytes(o.Content)
	default:
		return nil, fmt.Errorf("artifact: %s: no content source (Content or Repo)", o.Name)
	}

	col := r.db.Collection(Collection)
	if existing := col.FindOne(database.Doc{"hash": a.Hash, "name": a.Name}); existing != nil {
		prior := FromDoc(existing)
		if prior.Typ != a.Typ || prior.Path != a.Path || prior.Command != a.Command {
			return nil, fmt.Errorf("artifact: %s@%s already registered with different attributes",
				a.Name, a.Hash)
		}
		return prior, nil
	}
	if o.Content != nil && !r.db.Files().Exists(a.Hash) {
		r.db.Files().Put(a.Name, o.Content)
	}
	if _, err := col.InsertOne(a.Doc()); err != nil {
		return nil, fmt.Errorf("artifact: register %s: %w", a.Name, err)
	}
	return a, nil
}

// Doc renders the artifact as a database document.
func (a *Artifact) Doc() database.Doc {
	inputs := make([]any, len(a.InputIDs))
	for i, id := range a.InputIDs {
		inputs[i] = id
	}
	return database.Doc{
		"_id":           a.ID,
		"name":          a.Name,
		"type":          a.Typ,
		"command":       a.Command,
		"cwd":           a.CWD,
		"path":          a.Path,
		"documentation": a.Documentation,
		"hash":          a.Hash,
		"git":           map[string]any{"url": a.Git.URL, "hash": a.Git.Hash},
		"inputs":        inputs,
	}
}

// FromDoc reconstructs an artifact from its document.
func FromDoc(d database.Doc) *Artifact {
	a := &Artifact{
		ID:            str(d["_id"]),
		Name:          str(d["name"]),
		Typ:           str(d["type"]),
		Command:       str(d["command"]),
		CWD:           str(d["cwd"]),
		Path:          str(d["path"]),
		Documentation: str(d["documentation"]),
		Hash:          str(d["hash"]),
	}
	if g, ok := d["git"].(map[string]any); ok {
		a.Git = GitInfo{URL: str(g["url"]), Hash: str(g["hash"])}
	}
	if ins, ok := d["inputs"].([]any); ok {
		for _, in := range ins {
			a.InputIDs = append(a.InputIDs, str(in))
		}
	}
	return a
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

// Get returns the artifact with the given ID, or an error.
func (r *Registry) Get(id string) (*Artifact, error) {
	d := r.db.Collection(Collection).FindOne(database.Doc{"_id": id})
	if d == nil {
		return nil, fmt.Errorf("artifact: no artifact with id %s", id)
	}
	return FromDoc(d), nil
}

// All returns every registered artifact.
func (r *Registry) All() []*Artifact {
	var out []*Artifact
	for _, d := range r.db.Collection(Collection).Find(nil) {
		out = append(out, FromDoc(d))
	}
	return out
}

// Content fetches a file artifact's bytes from the database file store.
func (r *Registry) Content(a *Artifact) ([]byte, error) {
	data, err := r.db.Files().Get(a.Hash)
	if err != nil {
		return nil, fmt.Errorf("artifact: %s has no stored content: %w", a.Name, err)
	}
	return data, nil
}

// Closure returns the artifact and every transitive input, depth-first,
// deduplicated — the full provenance needed to reproduce it.
func (r *Registry) Closure(a *Artifact) ([]*Artifact, error) {
	seen := map[string]bool{}
	var out []*Artifact
	var walk func(x *Artifact) error
	walk = func(x *Artifact) error {
		if seen[x.ID] {
			return nil
		}
		seen[x.ID] = true
		out = append(out, x)
		for _, id := range x.InputIDs {
			in, err := r.Get(id)
			if err != nil {
				return fmt.Errorf("artifact: closure of %s: %w", a.Name, err)
			}
			if err := walk(in); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(a); err != nil {
		return nil, err
	}
	return out, nil
}
