package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"xmp/scenarios"
)

// noFiles is the chaos-file reader of a spec that must need none: a
// resolved one, whose chaos block is inline.
func noFiles(path string) ([]byte, error) {
	return nil, fmt.Errorf("resolved spec read %q", path)
}

// FuzzResolve feeds arbitrary documents through Parse and Resolve, which
// take specs from users and, inline, from dispatch coordinators. Neither
// may panic; resolving a resolved spec is the identity and needs no file
// tree; a resolved spec compiles; and CheckTargets, which builds the
// fabric to resolve chaos targets, never panics. Chaos-file references
// read the embedded scenarios/, as the spec-backed campaigns do. The
// corpus is seeded with every file of scenarios/.
func FuzzResolve(f *testing.F) {
	entries, err := scenarios.FS.ReadDir(".")
	if err != nil || len(entries) == 0 {
		f.Fatalf("no embedded scenarios: %v", err)
	}
	for _, e := range entries {
		data, err := scenarios.FS.ReadFile(e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		once, err := resolve(s, scenarios.FS.ReadFile)
		if err != nil {
			return
		}
		twice, err := resolve(once, noFiles)
		if err != nil {
			t.Fatalf("re-resolving a resolved spec: %v", err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Resolve is not idempotent:\n  once:  %+v\n  twice: %+v", once, twice)
		}
		c, err := lower(once)
		if err != nil {
			t.Fatalf("a resolved spec does not compile: %v", err)
		}
		// Past k=16 a fabric costs more memory than a fuzz run should.
		if c.Spec.Topology.K <= 16 {
			c.CheckTargets()
		}
	})
}
