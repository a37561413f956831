package artifact

import (
	"regexp"
	"strings"
	"testing"

	"gem5art/internal/database"
	"gem5art/internal/gitstore"
)

func newRegistry() *Registry {
	return NewRegistry(database.MustOpen(""))
}

func TestRegisterFileArtifact(t *testing.T) {
	r := newRegistry()
	a, err := r.Register(Options{
		Name: "vmlinux-5.4.49", Typ: "kernel",
		Command: "make -j8 vmlinux", CWD: "linux-stable/",
		Path:    "linux-stable/vmlinux",
		Content: []byte("kernel image bytes"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || a.Hash == "" {
		t.Fatalf("missing generated fields: %+v", a)
	}
	got, err := r.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != a.Name || got.Hash != a.Hash || got.Command != a.Command {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	content, err := r.Content(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "kernel image bytes" {
		t.Fatalf("content = %q", content)
	}
}

func TestRegisterRepoArtifact(t *testing.T) {
	r := newRegistry()
	repo := gitstore.NewRepo("https://gem5.googlesource.com/public/gem5")
	rev := repo.Commit(gitstore.Tree{"SConstruct": []byte("x")}, "v20.1.0.4")
	a, err := r.Register(Options{
		Name: "gem5-repo", Typ: "git repository",
		Command: "git clone https://gem5.googlesource.com/public/gem5",
		Path:    "gem5/", Repo: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != rev {
		t.Fatalf("hash = %s, want revision %s", a.Hash, rev)
	}
	if a.Git.URL != repo.URL() || a.Git.Hash != rev {
		t.Fatalf("git info = %+v", a.Git)
	}
}

func TestRegisterAtSpecificRevision(t *testing.T) {
	r := newRegistry()
	repo := gitstore.NewRepo("u")
	rev1 := repo.Commit(gitstore.Tree{"f": []byte("1")}, "first")
	repo.Commit(gitstore.Tree{"f": []byte("2")}, "second")
	a, err := r.Register(Options{Name: "repo", Typ: "git repository", Path: "r/",
		Repo: repo, Rev: rev1[:12]})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != rev1 {
		t.Fatalf("hash = %s, want %s (the pinned revision)", a.Hash, rev1)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := newRegistry()
	opts := Options{Name: "gem5", Typ: "gem5 binary", Path: "build/X86/gem5.opt",
		Command: "scons build/X86/gem5.opt -j8", Content: []byte("elf")}
	a, err := r.Register(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Register(opts)
	if err != nil {
		t.Fatalf("re-registration failed: %v", err)
	}
	if b.ID != a.ID {
		t.Fatalf("re-registration created a new artifact: %s vs %s", b.ID, a.ID)
	}
	if n := r.DB().Collection(Collection).Count(nil); n != 1 {
		t.Fatalf("%d documents after duplicate registration", n)
	}
}

func TestConflictingRegistrationRejected(t *testing.T) {
	r := newRegistry()
	if _, err := r.Register(Options{Name: "gem5", Typ: "gem5 binary",
		Path: "build/X86/gem5.opt", Content: []byte("elf")}); err != nil {
		t.Fatal(err)
	}
	_, err := r.Register(Options{Name: "gem5", Typ: "disk image",
		Path: "other/path", Content: []byte("elf")})
	if err == nil {
		t.Fatal("same content+name with different attributes registered")
	}
}

func TestChangedContentIsNewArtifact(t *testing.T) {
	// The paper: the hash "is used as a safety net... If this changes,
	// even if all other attributes remain the same, a new artifact is
	// generated."
	r := newRegistry()
	opts := Options{Name: "gem5", Typ: "gem5 binary", Path: "p", Content: []byte("v1")}
	a1, err := r.Register(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Content = []byte("v2")
	a2, err := r.Register(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID == a2.ID || a1.Hash == a2.Hash {
		t.Fatal("changed content did not create a new artifact")
	}
	versions := r.db.Collection(Collection).Find(database.Doc{"name": "gem5"})
	if len(versions) != 2 {
		t.Fatalf("%d versions", len(versions))
	}
}

func TestValidationErrors(t *testing.T) {
	r := newRegistry()
	cases := []Options{
		{Typ: "x", Content: []byte("a")},  // no name
		{Name: "x", Content: []byte("a")}, // no typ
		{Name: "x", Typ: "y"},             // no content source
		{Name: "x", Typ: "y", Content: []byte("a"), Repo: gitstore.NewRepo("u")}, // both
	}
	for i, o := range cases {
		if _, err := r.Register(o); err == nil {
			t.Errorf("case %d registered: %+v", i, o)
		}
	}
}

func TestDependencyClosure(t *testing.T) {
	r := newRegistry()
	repo, err := r.Register(Options{Name: "gem5-repo", Typ: "git repository",
		Path: "gem5/", Content: []byte("repo-marker")})
	if err != nil {
		t.Fatal(err)
	}
	binary, err := r.Register(Options{Name: "gem5", Typ: "gem5 binary",
		Path: "build/X86/gem5.opt", Content: []byte("elf"),
		Inputs: []*Artifact{repo}})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := r.Register(Options{Name: "disk", Typ: "disk image",
		Path: "disks/parsec.img", Content: []byte("img"),
		Inputs: []*Artifact{binary}})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := r.Closure(disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(closure) != 3 {
		t.Fatalf("closure size = %d, want 3", len(closure))
	}
	if closure[0].ID != disk.ID {
		t.Fatal("closure should start at the root")
	}
}

func TestClosureDeduplicatesDiamonds(t *testing.T) {
	r := newRegistry()
	base, _ := r.Register(Options{Name: "base", Typ: "t", Path: "p", Content: []byte("b")})
	l, _ := r.Register(Options{Name: "left", Typ: "t", Path: "p", Content: []byte("l"),
		Inputs: []*Artifact{base}})
	rt, _ := r.Register(Options{Name: "right", Typ: "t", Path: "p", Content: []byte("r"),
		Inputs: []*Artifact{base}})
	top, _ := r.Register(Options{Name: "top", Typ: "t", Path: "p", Content: []byte("t"),
		Inputs: []*Artifact{l, rt}})
	closure, err := r.Closure(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(closure) != 4 {
		t.Fatalf("diamond closure = %d artifacts, want 4", len(closure))
	}
}

func TestUUIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewUUID()
		if !re.MatchString(id) {
			t.Fatalf("bad UUID %s", id)
		}
		if seen[id] {
			t.Fatalf("duplicate UUID %s", id)
		}
		seen[id] = true
	}
}

func TestFileContentDeduplicatedInStore(t *testing.T) {
	r := newRegistry()
	content := []byte(strings.Repeat("disk", 1000))
	if _, err := r.Register(Options{Name: "a", Typ: "t", Path: "p", Content: content}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(Options{Name: "b", Typ: "t", Path: "p", Content: content}); err != nil {
		t.Fatal(err)
	}
	if got := r.DB().Files().TotalBytes(); got != len(content) {
		t.Fatalf("file store holds %d bytes, want %d (deduplicated)", got, len(content))
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := database.MustOpen(dir)
	r := NewRegistry(db)
	a, err := r.Register(Options{Name: "gem5", Typ: "gem5 binary", Path: "p",
		Content: []byte("elf"), Documentation: "main binary"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry(database.MustOpen(dir))
	got, err := r2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Documentation != "main binary" || got.Hash != a.Hash {
		t.Fatalf("reloaded artifact: %+v", got)
	}
	// Re-registration after reload must still be idempotent.
	b, err := r2.Register(Options{Name: "gem5", Typ: "gem5 binary", Path: "p",
		Content: []byte("elf"), Documentation: "main binary"})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID {
		t.Fatal("reload broke idempotent registration")
	}
}
