package hetensor

import (
	"math/rand"
	"sync"
	"testing"

	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// withCacheBudget runs f with the process-wide table cache set to budget,
// restoring the disabled state (and dropping all entries) afterwards.
func withCacheBudget(t *testing.T, budget int64, f func()) {
	t.Helper()
	SetTableCacheBudget(budget)
	ResetTableCache()
	defer func() {
		SetTableCacheBudget(0)
		ResetTableCache()
	}()
	f()
}

func denseEq(t *testing.T, a, b *CipherMatrix, what string) {
	t.Helper()
	if len(a.C) != len(b.C) {
		t.Fatalf("%s: %d vs %d cells", what, len(a.C), len(b.C))
	}
	for i := range a.C {
		if a.C[i].C.Cmp(b.C[i].C) != 0 {
			t.Fatalf("%s: cell %d is not bit-identical", what, i)
		}
	}
}

// TestTableCacheBitExact: cached evaluations must be bit-identical to the
// uncached engine (the cache only changes when and at what width tables are
// built, never the group element computed), and repeat invocations over the
// same encrypted matrix must actually hit.
func TestTableCacheBitExact(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(3))
	x1 := tensor.RandDense(rng, 5, 12, 2)
	x2 := tensor.RandDense(rng, 7, 12, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 12, 3, 2), 1)

	cold1 := MulPlainLeft(x1, w)
	cold2 := MulPlainLeft(x2, w)
	gT := Encrypt(pk, tensor.RandDense(rng, 5, 3, 0.5), 1)
	coldT := TransposeMulLeft(x1, gT)
	coldR := MulPlainRightTranspose(gT, tensor.RandDense(rand.New(rand.NewSource(9)), 4, 3, 1))

	withCacheBudget(t, 64<<20, func() {
		warm1 := MulPlainLeft(x1, w)
		warm2 := MulPlainLeft(x2, w) // same bases, different exponents: pure hits
		denseEq(t, cold1, warm1, "MulPlainLeft first call")
		denseEq(t, cold2, warm2, "MulPlainLeft second call")
		s := TableCacheStatsNow()
		if s.Misses == 0 || s.Hits == 0 {
			t.Fatalf("stats %+v: want both misses (first build) and hits (reuse)", s)
		}
		denseEq(t, coldT, TransposeMulLeft(x1, gT), "TransposeMulLeft")
		denseEq(t, coldR, MulPlainRightTranspose(gT, tensor.RandDense(rand.New(rand.NewSource(9)), 4, 3, 1)), "MulPlainRightTranspose")
		if s2 := TableCacheStatsNow(); s2.Bytes <= 0 || s2.Entries <= 0 {
			t.Fatalf("stats %+v: cache should hold entries", s2)
		}
	})
}

// TestTableCachePackedBitExact covers the packed kernels.
func TestTableCachePackedBitExact(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandDense(rng, 6, 10, 2)
	w := PackEncrypt(pk, tensor.RandDense(rng, 10, 4, 2), 1)
	cold := MulPlainLeftPacked(x, w)
	withCacheBudget(t, 64<<20, func() {
		warmA := MulPlainLeftPacked(x, w)
		warmB := MulPlainLeftPacked(x, w)
		for i := range cold.C {
			if cold.C[i].C.Cmp(warmA.C[i].C) != 0 || cold.C[i].C.Cmp(warmB.C[i].C) != 0 {
				t.Fatalf("packed cell %d is not bit-identical", i)
			}
		}
		if s := TableCacheStatsNow(); s.Hits == 0 {
			t.Fatalf("stats %+v: second packed call should hit", s)
		}
	})
}

// TestTableCacheEviction: entries accumulated across many distinct matrices
// must evict LRU-first once the budget fills, keep the byte accounting under
// the budget, and stay exact throughout.
func TestTableCacheEviction(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandDense(rng, 3, 8, 2)
	ws := make([]*CipherMatrix, 6)
	cold := make([]*CipherMatrix, len(ws))
	for i := range ws {
		ws[i] = Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1)
		cold[i] = MulPlainLeft(x, ws[i])
	}
	const budget = 256 << 10 // holds roughly half the 6 matrices' tables
	withCacheBudget(t, budget, func() {
		for i := range ws {
			denseEq(t, cold[i], MulPlainLeft(x, ws[i]), "evicting MulPlainLeft")
		}
		s := TableCacheStatsNow()
		if s.Evicted == 0 {
			t.Fatalf("stats %+v: accumulated working set over budget must evict", s)
		}
		if s.Bytes > budget {
			t.Fatalf("stats %+v: cache bytes exceed the budget", s)
		}
		denseEq(t, cold[0], MulPlainLeft(x, ws[0]), "post-eviction MulPlainLeft")
	})
}

// TestTableCacheOversizedInvocationBypasses: when one invocation's whole
// table working set cannot fit the budget at a worthwhile window, the call
// must bypass the cache (no thrash: no inserts, no self-eviction) and fall
// back to the per-call tiers.
func TestTableCacheOversizedInvocationBypasses(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(27))
	x := tensor.RandDense(rng, 3, 16, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 16, 40, 2), 1) // 40 columns of tables
	cold := MulPlainLeft(x, w)
	withCacheBudget(t, 64<<10, func() {
		denseEq(t, cold, MulPlainLeft(x, w), "bypassing MulPlainLeft")
		if s := TableCacheStatsNow(); s.Entries != 0 || s.Evicted != 0 {
			t.Fatalf("stats %+v: oversized invocation must bypass, not thrash", s)
		}
	})
}

// TestTableCacheAnonymousSourcesBypass: accumulators and row-slice views
// (identity 0) must never insert cache entries — their cells can be
// replaced, so cached tables could go stale.
func TestTableCacheAnonymousSourcesBypass(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandDense(rng, 4, 8, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1)
	withCacheBudget(t, 64<<20, func() {
		view := w.RowSlice(0, 8) // full view, but still an anonymous source
		MulPlainLeft(x, view)
		if s := TableCacheStatsNow(); s.Entries != 0 {
			t.Fatalf("stats %+v: row-slice view must bypass the cache", s)
		}
		acc := NewCipherMatrix(pk, 8, 2, 1) // mutable accumulator
		MulPlainLeft(x, acc)
		if s := TableCacheStatsNow(); s.Entries != 0 {
			t.Fatalf("stats %+v: accumulator must bypass the cache", s)
		}
	})
}

// TestTableCacheConcurrent hammers one encrypted matrix from several
// goroutines (the -cpu 1,4 CI lane runs this under the race detector).
func TestTableCacheConcurrent(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandDense(rng, 3, 8, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 8, 3, 2), 1)
	want := MulPlainLeft(x, w)
	withCacheBudget(t, 32<<20, func() {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got := MulPlainLeft(x, w)
					for j := range want.C {
						if got.C[j].C.Cmp(want.C[j].C) != 0 {
							errs <- "concurrent cached result diverged"
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	})
}

// TestTableCacheCRTMode: cached tables built while SecretOps is registered
// evaluate through the dual-chain path and stay bit-identical.
func TestTableCacheCRTMode(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(17))
	x := tensor.RandDense(rng, 4, 8, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 8, 2, 2), 1)
	cold := MulPlainLeft(x, w)
	paillier.RegisterSecretOps(k)
	defer paillier.UnregisterSecretOps(pk)
	withCacheBudget(t, 32<<20, func() {
		warm1 := MulPlainLeft(x, w)
		warm2 := MulPlainLeft(x, w)
		denseEq(t, cold, warm1, "CRT cached first call")
		denseEq(t, cold, warm2, "CRT cached second call")
		if s := TableCacheStatsNow(); s.Hits == 0 {
			t.Fatalf("stats %+v: CRT-mode reuse should hit", s)
		}
	})
}

// TestDotTablesBytesExact pins the cache's charge per table: the limb slab
// and nothing else. At the 512-bit test key a residue is 16 limbs mod N²
// (or 8 + 8 mod p² and q²), so 3 bases at width 4 hold 3·15·16·8 bytes in
// both modes.
func TestDotTablesBytesExact(t *testing.T) {
	k := testKey
	pk := &k.PublicKey
	col := Encrypt(pk, tensor.RandDense(rand.New(rand.NewSource(23)), 3, 1, 2), 1).C
	const want = 3 * 15 * 16 * 8
	check := func(mode string) {
		t.Helper()
		if got := pk.PrecomputeDot(col, 4).Bytes(); got != want {
			t.Fatalf("%s: DotTables.Bytes() = %d, want %d", mode, got, want)
		}
		if got := pk.DotTablesBytes(len(col), 4); got != want {
			t.Fatalf("%s: DotTablesBytes = %d, want %d", mode, got, want)
		}
	}
	check("public")
	paillier.RegisterSecretOps(k)
	defer paillier.UnregisterSecretOps(pk)
	check("crt")
}

func BenchmarkMulPlainLeftWarmCache(b *testing.B) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(19))
	x := tensor.RandDense(rng, 8, 16, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 16, 2, 2), 1)
	prev := SetTableCacheBudget(64 << 20)
	ResetTableCache()
	defer func() {
		SetTableCacheBudget(prev)
		ResetTableCache()
	}()
	MulPlainLeft(x, w) // warm the tables
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, w)
	}
}

func BenchmarkMulPlainLeftUncached(b *testing.B) {
	k := testKey
	pk := &k.PublicKey
	rng := rand.New(rand.NewSource(19))
	x := tensor.RandDense(rng, 8, 16, 2)
	w := Encrypt(pk, tensor.RandDense(rng, 16, 2, 2), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, w)
	}
}
