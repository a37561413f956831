package gitstore

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommitAndCheckout(t *testing.T) {
	r := NewRepo("https://gem5.googlesource.com/public/gem5")
	h1 := r.Commit(Tree{"SConstruct": []byte("v1")}, "initial")
	h2 := r.Commit(Tree{"SConstruct": []byte("v2"), "README": []byte("gem5")}, "update")
	if h1 == h2 {
		t.Fatal("different trees produced the same revision hash")
	}
	tree1, err := r.Checkout(h1)
	if err != nil {
		t.Fatal(err)
	}
	if string(tree1["SConstruct"]) != "v1" {
		t.Fatalf("checkout of %s returned %q", h1, tree1["SConstruct"])
	}
	if _, ok := tree1["README"]; ok {
		t.Fatal("old revision contains a file added later")
	}
	if head, err := r.RevParse("HEAD"); err != nil || head != h2 {
		t.Fatalf("HEAD = %s (%v), want %s", head, err, h2)
	}
}

func TestCheckoutIsIsolated(t *testing.T) {
	r := NewRepo("u")
	h := r.Commit(Tree{"f": []byte("original")}, "c")
	tree, err := r.Checkout(h)
	if err != nil {
		t.Fatal(err)
	}
	tree["f"][0] = 'X'
	again, err := r.Checkout(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again["f"], []byte("original")) {
		t.Fatal("mutating a checkout corrupted history")
	}
}

func TestCommitDeepCopiesInput(t *testing.T) {
	r := NewRepo("u")
	src := Tree{"f": []byte("abc")}
	h := r.Commit(src, "c")
	src["f"][0] = 'Z'
	got, err := r.Checkout(h)
	if err != nil {
		t.Fatal(err)
	}
	if string(got["f"]) != "abc" {
		t.Fatalf("history saw caller mutation: %q", got["f"])
	}
}

func TestAbbreviatedRevision(t *testing.T) {
	r := NewRepo("u")
	h := r.Commit(Tree{"f": []byte("x")}, "c")
	short := h[:10]
	full, err := r.RevParse(short)
	if err != nil {
		t.Fatal(err)
	}
	if full != h {
		t.Fatalf("RevParse(%s) = %s, want %s", short, full, h)
	}
	if _, err := r.RevParse("ZZZZ"); err == nil {
		t.Fatal("unknown revision resolved")
	}
}

func TestHeadRevisionKeywords(t *testing.T) {
	r := NewRepo("u")
	if _, err := r.Checkout("HEAD"); err == nil {
		t.Fatal("HEAD of empty repo resolved")
	}
	h := r.Commit(Tree{"f": []byte("x")}, "c")
	for _, rev := range []string{"HEAD", ""} {
		got, err := r.RevParse(rev)
		if err != nil {
			t.Fatalf("RevParse(%q): %v", rev, err)
		}
		if got != h {
			t.Fatalf("RevParse(%q) = %s, want %s", rev, got, h)
		}
	}
}

// TestLogLinksParents: the history links each commit to its parent:
// a revision hash covers its parent's hash.
func TestLogLinksParents(t *testing.T) {
	r := NewRepo("u")
	h1 := r.Commit(Tree{"f": []byte("1")}, "first")
	h2 := r.Commit(Tree{"f": []byte("2")}, "second")
	if want := hashCommit("u", "", "first", Tree{"f": []byte("1")}); h1 != want {
		t.Fatalf("root commit %s, want %s", h1, want)
	}
	if want := hashCommit("u", h1, "second", Tree{"f": []byte("2")}); h2 != want {
		t.Fatalf("second commit %s, want %s (parent %s)", h2, want, h1)
	}
}

func TestIdenticalTreesInDifferentReposDiffer(t *testing.T) {
	a := NewRepo("https://a")
	b := NewRepo("https://b")
	tree := Tree{"f": []byte("same")}
	if a.Commit(tree, "m") == b.Commit(tree, "m") {
		t.Fatal("revision hash does not incorporate repository URL")
	}
}

// Property: committing any tree and checking it out returns the same
// content, and the revision hash is deterministic for the same history.
func TestCheckoutRoundTripProperty(t *testing.T) {
	f := func(paths []string, blobs [][]byte) bool {
		tree := Tree{}
		for i, p := range paths {
			if p == "" {
				continue
			}
			var b []byte
			if i < len(blobs) {
				b = blobs[i]
			}
			tree[p] = b
		}
		r1 := NewRepo("prop")
		r2 := NewRepo("prop")
		h1 := r1.Commit(tree, "m")
		h2 := r2.Commit(tree, "m")
		if h1 != h2 {
			return false
		}
		got, err := r1.Checkout(h1)
		if err != nil || len(got) != len(tree) {
			return false
		}
		for p, want := range tree {
			if !bytes.Equal(got[p], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRevisionHashFormat(t *testing.T) {
	r := NewRepo("u")
	h := r.Commit(Tree{"f": []byte("x")}, "c")
	if len(h) != 40 {
		t.Fatalf("revision hash length %d, want 40 (sha1 hex)", len(h))
	}
	if strings.ToLower(h) != h {
		t.Fatal("revision hash is not lowercase hex")
	}
}
