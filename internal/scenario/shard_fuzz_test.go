package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"xmp/internal/chaos"
	"xmp/internal/exp"
	"xmp/internal/sim"
)

// smallShard runs the shipped permutation-flap spec, shrunk to two patterns
// and two schemes on a k=4 fabric for 1 ms, as one 0/1 shard and returns
// its file.
func smallShard(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("../../scenarios/permutation-flap.json")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		tb.Fatal(err)
	}
	s.Topology = &TopologySpec{K: 4}
	s.Scale = &ScaleSpec{Timescale: 0.005, SizeScale: 4096}
	s.Workloads = []WorkloadSpec{{Kind: "permutation"}, {Kind: "random"}}
	s.Schemes = []string{"DCTCP", "XMP-2"}
	return shardFile(tb, s, "../../scenarios")
}

// robustnessShard runs a robustness spec selecting its summary table: two
// schemes on a lossy k=4 fabric for 2 ms under an inline schedule of a
// link flap and a loss burst, as one 0/1 shard, and returns its file.
func robustnessShard(tb testing.TB) []byte {
	tb.Helper()
	return shardFile(tb, &Spec{Name: "fuzz-robustness", Family: FamilyRobustness, Topology: &TopologySpec{K: 4, Lossy: true},
		DurationMS: 2, Schemes: []string{"DCTCP", "XMP-2"}, Metrics: []string{"summary"},
		Chaos: &ChaosSpec{Seed: 11, Events: []chaos.Event{
			{At: 500 * sim.Microsecond, Kind: chaos.LinkDown, Target: "core0.0->agg0.0", Dur: 500 * sim.Microsecond},
			{At: sim.Millisecond, Kind: chaos.LossBurst, Target: "edge0.0->agg0.0", P: 0.02, Dur: 500 * sim.Microsecond},
		}}}, "")
}

// shardFile compiles s and returns its 0/1 shard file.
func shardFile(tb testing.TB, s *Spec, dir string) []byte {
	tb.Helper()
	c, err := Compile(s, dir)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := c.RunShard(exp.Unsharded, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeShard feeds arbitrary bytes to the merge path a coordinator
// and `xmpsim merge` take: DecodeShard and MergeShardBlobs never panic, and
// a decoded file re-encodes to a fixed point. The corpus is seeded with a
// real matrix shard file of a shipped spec, a real robustness one, and
// mutations of them, among them cells that lack a metric the spec selects
// and cells that carry a metric no selected table reads, which merge
// refuses naming the metric, and the matrix grid transposed, which merge
// refuses.
func FuzzDecodeShard(f *testing.F) {
	real, robustness := smallShard(f), robustnessShard(f)
	f.Add(real)
	f.Add(robustness)
	for _, bad := range []struct {
		data   []byte
		metric string
	}{
		{regexp.MustCompile(`"goodput\.mean":[^,}]*,`).ReplaceAll(real, nil), "goodput.mean"},
		{bytes.Replace(real, []byte(`"Metrics":{`), []byte(`"Metrics":{"goodput.p1":0,`), 1), "goodput.p1"},
		{regexp.MustCompile(`"fct\.p99":[^,}]*,`).ReplaceAll(robustness, nil), "fct.p99"},
		{bytes.Replace(robustness, []byte(`"Metrics":{`), []byte(`"Metrics":{"fct.small.p99":0,`), 1), "fct.small.p99"},
	} {
		if _, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "bad.json", Data: bad.data}}); err == nil || !strings.Contains(err.Error(), `"`+bad.metric+`"`) {
			f.Fatalf("a shard cell lacking or adding metric %q merges, or the error does not name it: %v", bad.metric, err)
		}
		f.Add(bad.data)
	}
	version := fmt.Sprintf(`"schema_version":%d`, exp.ShardSchemaVersion)
	f.Add(bytes.Replace(real, []byte(version), []byte(`"schema_version":4`), 1))
	f.Add([]byte(`{"manifest":{` + version + `,"campaign":"matrix"}}`))
	// Cells 1 and 2 swapped: (Permutation, Random) x (DCTCP, XMP-2)
	// scheme-major, a grid whose axes the cells no longer spell.
	var file struct {
		Manifest json.RawMessage `json:"manifest"`
		Cells    []struct {
			Cell int             `json:"cell"`
			Data json.RawMessage `json:"data"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(real, &file); err != nil {
		f.Fatal(err)
	}
	file.Cells[1].Data, file.Cells[2].Data = file.Cells[2].Data, file.Cells[1].Data
	transposed, err := json.Marshal(file)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "transposed.json", Data: transposed}}); err == nil || !strings.Contains(err.Error(), "cell 2") {
		f.Fatalf("a transposed matrix grid merges: %v", err)
	}
	f.Add(transposed)

	f.Fuzz(func(t *testing.T, data []byte) {
		blob := exp.ShardBlob{Name: "fuzz.json", Data: data}
		file, err := exp.DecodeShard(blob)
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := file.Encode(&once); err != nil {
			t.Fatalf("re-encoding a decoded shard: %v", err)
		}
		again, err := exp.DecodeShard(exp.ShardBlob{Name: "again.json", Data: once.Bytes()})
		if err != nil {
			t.Fatalf("decoding a re-encoded shard: %v\n%s", err, once.Bytes())
		}
		if err := again.Encode(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%s\n%s", err, once.Bytes(), twice.Bytes())
		}
		exp.MergeShardBlobs([]exp.ShardBlob{blob})
	})
}
