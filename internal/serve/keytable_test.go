package serve

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite testdata/store_keys.txt")

// keyTablePath pins, per kernel × {uve, sve} on the cycle tier at the
// -scale 8 sizes, the store key and the SHA-256 of the payload uveserve
// stores under it.
var keyTablePath = filepath.Join("testdata", "store_keys.txt")

// TestStoreKeyTable runs every cell of the table through a server and
// compares its key and payload digest with the committed row. A payload
// that moves under an unmoved key is a stale-result hazard: a daemon built
// from this tree would serve an older binary's stored report for it. A
// change that moves both re-records the table with -update.
func TestStoreKeyTable(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	var rows []string
	for _, k := range kernels.All {
		size := bench.SizeFor(k, &bench.Options{Scale: 8})
		for _, v := range []string{"uve", "sve"} {
			spec := JobSpec{Kernel: k.ID, Variant: v, Size: size}
			key := fingerprint(t, s, spec)
			id, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("Submit(%+v): %v", spec, err)
			}
			st, _ := s.Wait(context.Background(), id)
			if st.State != StateDone {
				t.Fatalf("%+v: state %s: %s", spec, st.State, st.Error)
			}
			rows = append(rows, fmt.Sprintf("%s %s %d %s %x", k.ID, v, size, key, sha256.Sum256(st.Payload)))
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	if *update {
		if err := os.WriteFile(keyTablePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(keyTablePath)
	if err != nil {
		t.Fatalf("read table (run with -update to record it): %v", err)
	}
	want := map[string][2]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		want[strings.Join(f[:3], " ")] = [2]string{f[3], f[4]}
	}
	for _, row := range rows {
		f := strings.Fields(row)
		cell := strings.Join(f[:3], " ")
		w, ok := want[cell]
		switch {
		case !ok:
			t.Errorf("%s: no row in %s", cell, keyTablePath)
		case f[3] == w[0] && f[4] != w[1]:
			t.Errorf("%s: payload digest moved under an unmoved store key — a stale-result hazard", cell)
		case f[3] != w[0] || f[4] != w[1]:
			t.Errorf("%s: store key moved (payload moved too: %v); re-record with -update", cell, f[4] != w[1])
		}
	}
	if len(want) != len(rows) {
		t.Errorf("table holds %d cells, the grid %d", len(want), len(rows))
	}
}
