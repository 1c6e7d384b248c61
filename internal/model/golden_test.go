package model

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// goldenDigests pins the exact curves of every registry entry on
// goldenTrace: FNV-1a over the float64 bits of every curve point
// (object curve, then byte curve when a byte mode is set). A refactor
// of the profiler, adapter or sharded plumbing must leave every digest
// as is. Keys name the model and the goldenVariants option set.
var goldenDigests = map[string]string{
	"krr/rate=0/bytes=off/w=0":                "bcd996b331b990e1",
	"krr/rate=0.2/bytes=off/w=0":              "0bd78f4a08620d1b",
	"krr/rate=0/bytes=on/w=0":                 "7b674bca66433f87",
	"krr/rate=0/bytes=uniform/w=0":            "bebf4d22aa2e6efa",
	"krr/rate=0/bytes=sizearray/w=0":          "7b674bca66433f87",
	"krr/rate=0/bytes=fenwick/w=0":            "2b8a53be325ad0c5",
	"krr/rate=0.2/bytes=off/w=4":              "1c90a4f50750928d",
	"krr-topdown/rate=0/bytes=off/w=0":        "6d07973f8c538192",
	"krr-topdown/rate=0.2/bytes=off/w=0":      "6c1e573c2410633c",
	"krr-topdown/rate=0/bytes=on/w=0":         "9bc5a32ac1e4df44",
	"krr-topdown/rate=0/bytes=uniform/w=0":    "f0aefeab5c6a5272",
	"krr-topdown/rate=0/bytes=sizearray/w=0":  "9bc5a32ac1e4df44",
	"krr-topdown/rate=0/bytes=fenwick/w=0":    "e08bfb03c930ccf6",
	"krr-topdown/rate=0.2/bytes=off/w=4":      "05dda284716c69fa",
	"krr-linear/rate=0/bytes=off/w=0":         "fd9eb0e70f4faa74",
	"krr-linear/rate=0.2/bytes=off/w=0":       "e23cccd95cb0f82e",
	"krr-linear/rate=0/bytes=on/w=0":          "627fc4572ad11863",
	"krr-linear/rate=0/bytes=uniform/w=0":     "d2056c6a600442cf",
	"krr-linear/rate=0/bytes=sizearray/w=0":   "627fc4572ad11863",
	"krr-linear/rate=0/bytes=fenwick/w=0":     "e6c820fff5df5b81",
	"krr-linear/rate=0.2/bytes=off/w=4":       "d500d9f41666b1bd",
	"krr-bucket/rate=0/bytes=off/w=0":         "16fe64fd02150532",
	"krr-bucket/rate=0.2/bytes=off/w=0":       "df2a40e6b14210ca",
	"krr-bucket/rate=0.2/bytes=off/w=4":       "68f2916496e17d48",
	"olken/rate=0/bytes=off/w=0":              "0914759ddfbbbaf4",
	"olken/rate=0.2/bytes=off/w=0":            "86b5a45c5dd8f49e",
	"olken/rate=0/bytes=on/w=0":               "db74d9eb9875fcd0",
	"olken/rate=0/bytes=uniform/w=0":          "db74d9eb9875fcd0",
	"olken/rate=0/bytes=sizearray/w=0":        "db74d9eb9875fcd0",
	"olken/rate=0/bytes=fenwick/w=0":          "db74d9eb9875fcd0",
	"olken/rate=0.2/bytes=off/w=4":            "482583d58788de31",
	"mimir/rate=0/bytes=off/w=0":              "39052dab6401685d",
	"mimir/rate=0.2/bytes=off/w=0":            "6184ed2a61919c4c",
	"mimir/rate=0.2/bytes=off/w=4":            "c56d2d32f359a530",
	"lfu/rate=0/bytes=off/w=0":                "485f6f98f1875caa",
	"lfu/rate=0.2/bytes=off/w=0":              "1da5749cb7e84b39",
	"mru/rate=0/bytes=off/w=0":                "8f84dda1311febb2",
	"mru/rate=0.2/bytes=off/w=0":              "43445a61208e007c",
	"shards/rate=0/bytes=off/w=0":             "8a7e704436af837c",
	"shards/rate=0.2/bytes=off/w=0":           "86b5a45c5dd8f49e",
	"shards/rate=0/bytes=on/w=0":              "29c7f3b3c172aeeb",
	"shards/rate=0/bytes=uniform/w=0":         "29c7f3b3c172aeeb",
	"shards/rate=0/bytes=sizearray/w=0":       "29c7f3b3c172aeeb",
	"shards/rate=0/bytes=fenwick/w=0":         "29c7f3b3c172aeeb",
	"shards-fixedsize/rate=0/bytes=off/w=0":   "0914759ddfbbbaf4",
	"shards-fixedsize/rate=0.2/bytes=off/w=0": "d60387905df7d7df",
	"aet/rate=0/bytes=off/w=0":                "5e4c733648d5fad9",
	"aet/rate=0.2/bytes=off/w=0":              "2a05f404adef397f",
	"statstack/rate=0/bytes=off/w=0":          "7545b1b94b94156d",
	"statstack/rate=0.2/bytes=off/w=0":        "612c40a19c9c8558",
	"counterstacks/rate=0/bytes=off/w=0":      "0eac89e5407ad946",
	"counterstacks/rate=0.2/bytes=off/w=0":    "21a24e60b3005089",
	"che/rate=0/bytes=off/w=0":                "acce4d6eac47ba5c",
	"che/rate=0.2/bytes=off/w=0":              "9069bc3372d78c4f",
	"fagin/rate=0/bytes=off/w=0":              "ce42951e61dbf816",
	"fagin/rate=0.2/bytes=off/w=0":            "f95fcff96a3be6ce",
}

// goldenStats pins each goldenDigests key's stream counters after the
// whole of goldenTrace, {Seen, Sampled}: where a request is counted and
// where its sampling decision is made may move, the counts may not.
var goldenStats = map[string][2]uint64{
	"krr/rate=0/bytes=off/w=0":                {20400, 20400},
	"krr/rate=0.2/bytes=off/w=0":              {20400, 5699},
	"krr/rate=0/bytes=on/w=0":                 {20400, 20400},
	"krr/rate=0/bytes=uniform/w=0":            {20400, 20400},
	"krr/rate=0/bytes=sizearray/w=0":          {20400, 20400},
	"krr/rate=0/bytes=fenwick/w=0":            {20400, 20400},
	"krr/rate=0.2/bytes=off/w=4":              {20400, 5699},
	"krr-topdown/rate=0/bytes=off/w=0":        {20400, 20400},
	"krr-topdown/rate=0.2/bytes=off/w=0":      {20400, 5699},
	"krr-topdown/rate=0/bytes=on/w=0":         {20400, 20400},
	"krr-topdown/rate=0/bytes=uniform/w=0":    {20400, 20400},
	"krr-topdown/rate=0/bytes=sizearray/w=0":  {20400, 20400},
	"krr-topdown/rate=0/bytes=fenwick/w=0":    {20400, 20400},
	"krr-topdown/rate=0.2/bytes=off/w=4":      {20400, 5699},
	"krr-linear/rate=0/bytes=off/w=0":         {20400, 20400},
	"krr-linear/rate=0.2/bytes=off/w=0":       {20400, 5699},
	"krr-linear/rate=0/bytes=on/w=0":          {20400, 20400},
	"krr-linear/rate=0/bytes=uniform/w=0":     {20400, 20400},
	"krr-linear/rate=0/bytes=sizearray/w=0":   {20400, 20400},
	"krr-linear/rate=0/bytes=fenwick/w=0":     {20400, 20400},
	"krr-linear/rate=0.2/bytes=off/w=4":       {20400, 5699},
	"krr-bucket/rate=0/bytes=off/w=0":         {20400, 20400},
	"krr-bucket/rate=0.2/bytes=off/w=0":       {20400, 5699},
	"krr-bucket/rate=0.2/bytes=off/w=4":       {20400, 5699},
	"olken/rate=0/bytes=off/w=0":              {20400, 20400},
	"olken/rate=0.2/bytes=off/w=0":            {20400, 5699},
	"olken/rate=0/bytes=on/w=0":               {20400, 20400},
	"olken/rate=0/bytes=uniform/w=0":          {20400, 20400},
	"olken/rate=0/bytes=sizearray/w=0":        {20400, 20400},
	"olken/rate=0/bytes=fenwick/w=0":          {20400, 20400},
	"olken/rate=0.2/bytes=off/w=4":            {20400, 5699},
	"mimir/rate=0/bytes=off/w=0":              {20400, 20400},
	"mimir/rate=0.2/bytes=off/w=0":            {20400, 5699},
	"mimir/rate=0.2/bytes=off/w=4":            {20400, 5699},
	"lfu/rate=0/bytes=off/w=0":                {20400, 20400},
	"lfu/rate=0.2/bytes=off/w=0":              {20400, 5699},
	"mru/rate=0/bytes=off/w=0":                {20400, 20400},
	"mru/rate=0.2/bytes=off/w=0":              {20400, 5699},
	"shards/rate=0/bytes=off/w=0":             {20400, 1608},
	"shards/rate=0.2/bytes=off/w=0":           {20400, 5699},
	"shards/rate=0/bytes=on/w=0":              {20400, 1608},
	"shards/rate=0/bytes=uniform/w=0":         {20400, 1608},
	"shards/rate=0/bytes=sizearray/w=0":       {20400, 1608},
	"shards/rate=0/bytes=fenwick/w=0":         {20400, 1608},
	"shards-fixedsize/rate=0/bytes=off/w=0":   {20400, 20400},
	"shards-fixedsize/rate=0.2/bytes=off/w=0": {20400, 5699},
	"aet/rate=0/bytes=off/w=0":                {20400, 20400},
	"aet/rate=0.2/bytes=off/w=0":              {20400, 5699},
	"statstack/rate=0/bytes=off/w=0":          {20400, 20400},
	"statstack/rate=0.2/bytes=off/w=0":        {20400, 5699},
	"counterstacks/rate=0/bytes=off/w=0":      {20400, 20400},
	"counterstacks/rate=0.2/bytes=off/w=0":    {20400, 5699},
	"che/rate=0/bytes=off/w=0":                {20400, 20400},
	"che/rate=0.2/bytes=off/w=0":              {20400, 5699},
	"fagin/rate=0/bytes=off/w=0":              {20400, 20400},
	"fagin/rate=0.2/bytes=off/w=0":            {20400, 5699},
}

// goldenVariants lists the option sets digested for one entry:
// serial, spatially sampled, every byte mode the entry supports, and
// the 4-way sharded pipeline under sampling.
func goldenVariants(info Info) []Options {
	vs := []Options{{}, {SamplingRate: 0.2}}
	if info.Caps.Has(CapBytes) {
		for _, b := range []ByteMode{BytesOn, BytesUniform, BytesSizeArray, BytesFenwick} {
			vs = append(vs, Options{Bytes: b})
		}
	}
	if info.Caps.Has(CapSharded) {
		vs = append(vs, Options{SamplingRate: 0.2, Workers: 4})
	}
	return vs
}

// goldenTrace is a Zipf stream over variable-size objects with a
// delete every 50th request, so the digests cover the reference,
// delete and byte-tracking paths.
func goldenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sizes := workload.LogNormalSize{Mu: 7, Sigma: 1.2, Min: 64, Max: 1 << 20, Salt: 3}
	gen := workload.NewZipf(5, 3000, 0.9, sizes, 0.1)
	tr := &trace.Trace{}
	for i := 0; i < 20000; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(req)
		if i%50 == 49 {
			tr.Append(trace.Request{Key: req.Key, Op: trace.OpDelete})
		}
	}
	return tr
}

// curveDigest folds the bit patterns of c's points into h.
func curveDigest(h hash.Hash, c *mrc.Curve) {
	var buf [16]byte
	for i := range c.Sizes {
		binary.LittleEndian.PutUint64(buf[:8], c.Sizes[i])
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(c.Miss[i]))
		h.Write(buf[:])
	}
}

// TestGoldenCurveDigests pins every registry model's curves bit for bit,
// and its stream counters exactly.
// Float results may legitimately differ on architectures where the
// compiler fuses multiply-adds, so the digests are checked on amd64
// only, where they were recorded.
func TestGoldenCurveDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	tr := goldenTrace(t)
	for _, name := range Names() {
		info, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, opts := range goldenVariants(info) {
			opts.K, opts.Seed = 5, 42
			key := fmt.Sprintf("%s/rate=%v/bytes=%v/w=%d", name, opts.SamplingRate, opts.Bytes, opts.Workers)
			t.Run(key, func(t *testing.T) {
				m, err := New(name, opts)
				if err != nil {
					t.Fatal(err)
				}
				feed(t, m, tr)
				h := fnv.New64a()
				curveDigest(h, m.ObjectMRC())
				if opts.Bytes != BytesOff {
					curveDigest(h, m.ByteMRC())
				}
				got := fmt.Sprintf("%016x", h.Sum64())
				if want := goldenDigests[key]; got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
				st := m.Stats()
				if got, want := [2]uint64{st.Seen, st.Sampled}, goldenStats[key]; got != want {
					t.Errorf("{Seen, Sampled} = %v, want %v", got, want)
				}
			})
		}
	}
}
