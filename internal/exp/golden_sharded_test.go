package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpcc/internal/obs"
)

// TestGoldenTraceSharded is the worker-count determinism gate: both golden
// runs, executed at shards 1, 2 and 4, must reproduce the committed golden
// traces byte for byte.
func TestGoldenTraceSharded(t *testing.T) {
	cases := []struct {
		name   string
		spec   func(*obs.Bus) Spec
		golden string
	}{
		{"fig3c", goldenSpec, "trace_fig3c_seed11.jsonl.golden"},
		{"policed", policedGoldenSpec, "trace_policed_seed17.jsonl.golden"},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatalf("%v (regenerate with go test ./internal/exp -run TestGoldenTrace -update)", err)
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				var buf bytes.Buffer
				jw := obs.NewJSONLWriter(&buf)
				s := tc.spec(obs.NewBus(jw))
				s.Shards = shards
				Run(s)
				if err := jw.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("sharded trace diverges from %s at shards=%d: %s",
						tc.golden, shards, firstDiff(buf.Bytes(), want))
				}
			})
		}
	}
}
