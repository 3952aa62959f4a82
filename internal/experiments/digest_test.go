package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// update regenerates the golden registry digests instead of checking them:
//
//	go test ./internal/experiments -run TestParallelByteIdentical -update
//
// Moving the digests is a deliberate act: a refactor that claims to change
// no figure must pass against the committed file unchanged.
var update = flag.Bool("update", false, "regenerate testdata/registry.sha256")

const digestFile = "testdata/registry.sha256"

// checkDigests compares each figure's rendered bytes against the committed
// SHA-256 in testdata/registry.sha256 (one "<hex>  <figure>" line each, in
// registry order). On drift it names the figure and prints its output, so
// the moved table is visible in the failure itself.
func checkDigests(t *testing.T, figs []rendered) {
	t.Helper()
	if *update {
		var buf bytes.Buffer
		for _, f := range figs {
			sum := sha256.Sum256(f.out)
			fmt.Fprintf(&buf, "%s  %s\n", hex.EncodeToString(sum[:]), f.name)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d figures)", digestFile, len(figs))
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if len(want) != len(figs) {
		t.Errorf("%s lists %d figures, registry has %d", digestFile, len(want), len(figs))
	}
	for _, f := range figs {
		sum := sha256.Sum256(f.out)
		got := hex.EncodeToString(sum[:])
		switch w, ok := want[f.name]; {
		case !ok:
			t.Errorf("%s: no golden digest in %s", f.name, digestFile)
		case w != got:
			t.Errorf("%s: rendered output drifted from the golden digest\nwant %s\ngot  %s\n%s", f.name, w, got, f.out)
		}
	}
}
