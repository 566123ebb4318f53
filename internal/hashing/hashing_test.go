package hashing

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"omniwindow/internal/packet"
)

func randKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Uint32()),
		Proto:   uint8(rng.Uint32()),
	}
}

func TestKey64Deterministic(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if Key64(k, 42) != Key64(k, 42) {
		t.Fatal("hash not deterministic")
	}
}

func TestKey64SeedSensitivity(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if Key64(k, 1) == Key64(k, 2) {
		t.Fatal("different seeds produced identical hashes")
	}
}

func TestKey64InputSensitivity(t *testing.T) {
	base := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	variants := []packet.FlowKey{
		{SrcIP: 2, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 3, SrcPort: 3, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 4, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17},
	}
	h := Key64(base, 7)
	for _, v := range variants {
		if Key64(v, 7) == h {
			t.Fatalf("single-field change did not alter hash: %v", v)
		}
	}
}

func TestIndexInRange(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, seed uint64) bool {
		k := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		for _, n := range []int{1, 2, 7, 64, 4096, 1 << 20} {
			i := Index(k, seed, n)
			if i < 0 || i >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIndexUniformity checks that bucket occupancy over random keys is
// within a loose chi-square-ish bound of uniform.
func TestIndexUniformity(t *testing.T) {
	const buckets, samples = 64, 64 * 2000
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[Index(randKey(rng), 1234, buckets)]++
	}
	mean := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 6*math.Sqrt(mean) {
			t.Fatalf("bucket %d count %d deviates too far from mean %.1f", b, c, mean)
		}
	}
}

// TestFamilyIndependence verifies that two family members disagree on most
// keys (a sanity proxy for pairwise independence needed by sketch rows).
func TestFamilyIndependence(t *testing.T) {
	fam := NewFamily(4, 99)
	rng := rand.New(rand.NewSource(11))
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		k := randKey(rng)
		if fam.Index(0, k, 1024) == fam.Index(1, k, 1024) {
			same++
		}
	}
	// Expected collision rate 1/1024; allow generous slack.
	if same > n/100 {
		t.Fatalf("family members agree too often: %d/%d", same, n)
	}
}

func TestFamilySizeAndSeeds(t *testing.T) {
	fam := NewFamily(5, 7)
	if fam.Size() != 5 {
		t.Fatalf("Size() = %d want 5", fam.Size())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		s := fam.Seed(i)
		if seen[s] {
			t.Fatalf("duplicate seed at %d", i)
		}
		seen[s] = true
	}
}

func TestBytes64LengthSensitivity(t *testing.T) {
	a := Bytes64([]byte("abcdefgh"), 5)
	b := Bytes64([]byte("abcdefg"), 5)
	c := Bytes64([]byte("abcdefghi"), 5)
	if a == b || a == c || b == c {
		t.Fatal("length changes did not alter hash")
	}
	if Bytes64(nil, 5) != Bytes64([]byte{}, 5) {
		t.Fatal("nil and empty should hash equal")
	}
}

func TestPair64DistinguishesValues(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1}
	if Pair64(k, 1, 3) == Pair64(k, 2, 3) {
		t.Fatal("pair hash ignored value")
	}
}

func TestCRC32CMatchesKnownProperties(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if CRC32C(k) != CRC32C(k) {
		t.Fatal("CRC not deterministic")
	}
	if CRC32C(k) == CRC32C(k.Reverse()) {
		t.Fatal("CRC should differ for reversed key")
	}
}

// TestCRC32CMatchesStdlib: the hand-rolled table loop must stay
// bit-identical to hash/crc32's Castagnoli checksum — shard routing by
// this value is baked into snapshots and WAL grouping, so a divergence
// would silently corrupt recovery.
func TestCRC32CMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		k := randKey(rng)
		b := k.Bytes()
		want := crc32.Checksum(b[:], castagnoli)
		if got := CRC32C(k); got != want {
			t.Fatalf("CRC32C(%+v) = %#x, stdlib %#x", k, got, want)
		}
	}
}

// TestShardZeroAlloc pins per-record shard routing at zero allocations —
// it runs once per ingested AFR on the controller's ingest hot path.
func TestShardZeroAlloc(t *testing.T) {
	k := packet.FlowKey{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 5555, DstPort: 443, Proto: 6}
	var sink int
	if allocs := testing.AllocsPerRun(1000, func() { sink += Shard(k, 8) }); allocs != 0 {
		t.Fatalf("Shard allocated %v per call, want 0 (sink %d)", allocs, sink)
	}
}

func TestShardRangeAndBalance(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 8, 16} {
		counts := make([]int, n)
		for i := 0; i < 4096; i++ {
			k := packet.FlowKey{SrcIP: uint32(Mix64(uint64(i))), DstIP: uint32(i), DstPort: 443, Proto: 6}
			s := Shard(k, n)
			if s < 0 || s >= n {
				t.Fatalf("Shard(%d shards) = %d out of range", n, s)
			}
			counts[s]++
			if Shard(k, n) != s {
				t.Fatal("Shard not deterministic")
			}
		}
		// Every shard must receive a reasonable slice of a uniform key
		// population: no shard under 1/4 of the fair share.
		for s, c := range counts {
			if c < 4096/n/4 {
				t.Fatalf("shard %d/%d starved: %d of 4096 keys", s, n, c)
			}
		}
	}
}

func BenchmarkKey64(b *testing.B) {
	k := packet.FlowKey{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 5555, DstPort: 443, Proto: 6}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Key64(k, uint64(i))
	}
	_ = sink
}

// key64Bytes is the byte-serializing formulation of Key64: the 13-byte
// big-endian key read as one little-endian 8-byte lane, one 4-byte lane
// and one byte. Key64 computes the same lanes from the fields directly;
// this reference pins that the two never disagree.
func key64Bytes(k packet.FlowKey, seed uint64) uint64 {
	b := k.Bytes()
	lane0 := binary.LittleEndian.Uint64(b[0:8])
	lane1 := uint64(binary.LittleEndian.Uint32(b[8:12]))
	lane2 := uint64(b[12])

	h := seed + prime5 + packet.KeyBytes
	h ^= rotl(lane0*prime2, 31) * prime1
	h = rotl(h, 27)*prime1 + prime4
	h ^= lane1 * prime1
	h = rotl(h, 23)*prime2 + prime3
	h ^= lane2 * prime5
	h = rotl(h, 11) * prime1
	return Mix64(h)
}

// edgeKeys are the keys whose byte patterns a lane mix-up would most
// likely mishandle: all-zero, all-ones, and each field alone at its
// maximum.
var edgeKeys = []packet.FlowKey{
	{},
	{SrcIP: math.MaxUint32, DstIP: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16, Proto: math.MaxUint8},
	{SrcIP: math.MaxUint32},
	{DstIP: math.MaxUint32},
	{SrcPort: math.MaxUint16},
	{DstPort: math.MaxUint16},
	{Proto: math.MaxUint8},
}

// TestKey64MatchesByteReference: every sketch bucket, Bloom probe and
// snapshot depends on Key64's exact value, so the field-lane computation
// must equal the byte-serializing reference on every input.
func TestKey64MatchesByteReference(t *testing.T) {
	for _, k := range edgeKeys {
		for _, seed := range []uint64{0, 1, math.MaxUint64, 0x9E3779B185EBCA87} {
			if got, want := Key64(k, seed), key64Bytes(k, seed); got != want {
				t.Fatalf("Key64(%+v, %#x) = %#x, reference %#x", k, seed, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1<<20; i++ {
		k, seed := randKey(rng), rng.Uint64()
		if got, want := Key64(k, seed), key64Bytes(k, seed); got != want {
			t.Fatalf("Key64(%+v, %#x) = %#x, reference %#x", k, seed, got, want)
		}
	}
}

func FuzzKey64(f *testing.F) {
	for _, k := range edgeKeys {
		f.Add(k.SrcIP, k.DstIP, k.SrcPort, k.DstPort, k.Proto, uint64(0))
	}
	f.Add(uint32(0x0A0B0C0D), uint32(0x01020304), uint16(5555), uint16(443), uint8(6), uint64(42))
	f.Fuzz(func(t *testing.T, src, dst uint32, sp, dp uint16, proto uint8, seed uint64) {
		k := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		if got, want := Key64(k, seed), key64Bytes(k, seed); got != want {
			t.Fatalf("Key64(%+v, %#x) = %#x, reference %#x", k, seed, got, want)
		}
	})
}

// goldenKeyDigest is the FNV-64a digest of Key64, Index, Family.Index and
// Family.Hash64 over a fixed key set (see keyDigest). It pins the hash
// values themselves: sketch layouts, Bloom verdicts and checkpoint bytes
// all follow from them, so a change to any single value is a format
// change, not a refactor.
const goldenKeyDigest uint64 = 0xb1f9a98788802289

func keyDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	keys := append([]packet.FlowKey(nil), edgeKeys...)
	rng := rand.New(rand.NewSource(2023))
	for i := 0; i < 512; i++ {
		keys = append(keys, randKey(rng))
	}
	fam := NewFamily(4, 77)
	for _, k := range keys {
		for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
			put(Key64(k, seed))
			for _, n := range []int{1, 7, 4096, 1 << 20} {
				put(uint64(Index(k, seed, n)))
			}
		}
		for i := 0; i < fam.Size(); i++ {
			put(uint64(fam.Index(i, k, 65536)))
			put(fam.Hash64(i, k))
		}
	}
	return h.Sum64()
}

func TestGoldenKeyDigest(t *testing.T) {
	if got := keyDigest(); got != goldenKeyDigest {
		t.Fatalf("key hash digest = %#x, want %#x: a hash value changed", got, goldenKeyDigest)
	}
}
