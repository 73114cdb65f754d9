//===----------------------------------------------------------------------===//
// Rotation-key cache tests: declare/generate-on-first-use semantics, LRU
// eviction by governor reclaim (also concurrent with pinned lookups),
// transparent regeneration, truncation widening, pinning via shared_ptr
// handles, and budget refusals propagating as clean ResourceExhausted
// through the checked evaluator tier. Hits, misses and evictions are read
// from the governor's counters, the one tally.
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"
#include "fhe/Evaluator.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace ace;
using namespace ace::fhe;

namespace {

struct KeyCacheTest : ::testing::Test {
  KeyCacheTest() : SavedBudget(ResourceGovernor::instance().budgetBytes()) {
    CkksParams P;
    P.RingDegree = 1024;
    P.Slots = 64;
    P.LogScale = 45;
    P.LogFirstModulus = 55;
    P.NumRescaleModuli = 11;
    P.LogSpecialModulus = 60;
    P.Seed = 17;
    Ctx = std::make_unique<Context>(P);
    Enc = std::make_unique<Encoder>(*Ctx);
    Gen = std::make_unique<KeyGenerator>(*Ctx);
    Pub = Gen->makePublicKey();
    Cache = std::make_unique<RotationKeyCache>(*Ctx, *Gen);
    Eval = std::make_unique<Evaluator>(*Ctx, *Enc, Keys, Cache.get());
    Encrypt = std::make_unique<Encryptor>(*Ctx, Pub);
    Decrypt = std::make_unique<Decryptor>(*Ctx, Gen->secretKey());
    ResourceGovernor::instance().resetCounters();
  }
  ~KeyCacheTest() override {
    FaultInjector::instance().reset();
    ResourceGovernor::instance().setBudgetBytes(SavedBudget);
    ResourceGovernor::instance().resetCounters();
  }

  std::vector<double> randomSlots(uint64_t Seed) {
    Rng R(Seed);
    std::vector<double> X(Ctx->slots());
    for (auto &V : X)
      V = R.uniformReal(-1, 1);
    return X;
  }

  static GovernorStats counters() {
    return ResourceGovernor::instance().stats();
  }

  size_t SavedBudget;
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Encoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  PublicKey Pub;
  EvalKeys Keys;
  std::unique_ptr<RotationKeyCache> Cache;
  std::unique_ptr<Evaluator> Eval;
  std::unique_ptr<Encryptor> Encrypt;
  std::unique_ptr<Decryptor> Decrypt;
};

TEST_F(KeyCacheTest, GeneratesOnFirstUseThenHits) {
  uint64_t Galois = Cache->declareRotation(3);
  EXPECT_TRUE(Cache->declared(Galois));
  EXPECT_EQ(Cache->stats().ResidentCount, 0u); // declared, not built

  auto First = Cache->get(Galois);
  ASSERT_TRUE(First.ok()) << First.status().message();
  EXPECT_EQ(counters().KeyCacheMisses, 1u);
  EXPECT_EQ(Cache->stats().ResidentCount, 1u);
  EXPECT_GT(Cache->stats().ResidentBytes, 0u);

  auto Second = Cache->get(Galois);
  ASSERT_TRUE(Second.ok());
  EXPECT_EQ(counters().KeyCacheHits, 1u);
  EXPECT_EQ(counters().KeyCacheMisses, 1u);
  EXPECT_EQ(First->get(), Second->get()); // same resident key
}

TEST_F(KeyCacheTest, UndeclaredGaloisIsKeyMissing) {
  auto Out = Cache->get(12345);
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.status().code(), ErrorCode::KeyMissing);
}

TEST_F(KeyCacheTest, CachedRotationMatchesEagerKey) {
  // The cache draws fresh key material (different RNG order than an
  // eager fill), so compare decrypted values, not ciphertext bits.
  uint64_t G5 = galoisForRotation(Ctx->degree(), Ctx->slots(), 5);
  EvalKeys EagerKeys;
  EagerKeys.Rotations.emplace(G5, Gen->makeRotationKey(5));
  Evaluator EagerEval(*Ctx, *Enc, EagerKeys);
  Cache->declareRotation(5);

  std::vector<double> X = randomSlots(3);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);
  auto Cached = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 5));
  auto Eager = Decrypt->decryptRealValues(*Enc, EagerEval.rotate(Ct, 5));
  for (size_t I = 0; I < X.size(); ++I) {
    EXPECT_NEAR(Cached[I], X[(I + 5) % Ctx->slots()], 1e-5);
    EXPECT_NEAR(Cached[I], Eager[I], 1e-5);
  }
}

TEST_F(KeyCacheTest, EvictionRegeneratesTransparently) {
  Cache->declareRotation(2);
  std::vector<double> X = randomSlots(7);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);
  auto Before = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 2));

  size_t Released = Cache->evictColdest(SIZE_MAX);
  EXPECT_GT(Released, 0u);
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);
  EXPECT_EQ(counters().KeyCacheEvictions, 1u);

  // Regenerated key: fresh material, same rotation semantics.
  auto After = Decrypt->decryptRealValues(*Enc, Eval->rotate(Ct, 2));
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(After[I], Before[I], 1e-5);
  EXPECT_EQ(counters().KeyCacheMisses, 2u);
}

TEST_F(KeyCacheTest, GovernorReclaimEvictsLeastRecentlyUsedFirst) {
  uint64_t G1 = Cache->declareRotation(1);
  uint64_t G2 = Cache->declareRotation(2);
  ASSERT_TRUE(Cache->get(G1).ok());
  ASSERT_TRUE(Cache->get(G2).ok());
  ASSERT_TRUE(Cache->get(G1).ok()); // G2 is now the coldest
  size_t OneKeyBytes = Cache->stats().ResidentBytes / 2;

  // A budget with no headroom: admitting one key's worth reclaims
  // exactly the coldest key, and the admission then fits.
  ResourceGovernor &Gov = ResourceGovernor::instance();
  Gov.setBudgetBytes(Gov.stats().totalChargedBytes());
  ASSERT_TRUE(Gov.admit(OneKeyBytes, "test").ok());
  Gov.setBudgetBytes(0);
  EXPECT_EQ(Cache->stats().ResidentCount, 1u);
  EXPECT_EQ(counters().KeyCacheEvictions, 1u);

  Gov.resetCounters();
  ASSERT_TRUE(Cache->get(G1).ok());
  EXPECT_EQ(counters().KeyCacheHits, 1u);
  ASSERT_TRUE(Cache->get(G2).ok()); // evicted, still declared
  EXPECT_EQ(counters().KeyCacheMisses, 1u);
}

TEST_F(KeyCacheTest, ReclaimConcurrentWithPinnedLookups) {
  std::vector<uint64_t> Galois;
  for (int64_t Step : {1, 2, 3, 4})
    Galois.push_back(Cache->declareRotation(Step));
  ResourceGovernor &Gov = ResourceGovernor::instance();
  // Headroom for key generation; the reclaiming thread's own request is
  // the whole budget, so each of its admissions reclaims every cold key.
  const size_t Budget = Gov.stats().totalChargedBytes() + (size_t(1) << 30);
  Gov.setBudgetBytes(Budget);

  constexpr int kGetters = 3, kGetsEach = 40;
  std::atomic<bool> Done{false};
  std::thread Reclaimer([&] {
    while (!Done.load()) {
      (void)Gov.admit(Budget, "reclaim");
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> Getters;
  std::atomic<int> Failures{0};
  for (int T = 0; T < kGetters; ++T)
    Getters.emplace_back([&, T] {
      for (int I = 0; I < kGetsEach; ++I) {
        auto Key = Cache->get(Galois[(T + I) % Galois.size()]);
        // The handle pins the key: reclaim may evict the entry, never
        // free the material under us.
        if (!Key.ok() || (*Key)->Parts.size() != Ctx->chainLength() ||
            (*Key)->byteSize() == 0)
          ++Failures;
      }
    });
  for (auto &G : Getters)
    G.join();
  Done = true;
  Reclaimer.join();
  Gov.setBudgetBytes(0);

  EXPECT_EQ(Failures.load(), 0);
  GovernorStats S = counters();
  EXPECT_EQ(S.KeyCacheHits + S.KeyCacheMisses,
            static_cast<uint64_t>(kGetters * kGetsEach));
  // The cache's resident bytes and the governor's charge agree.
  EXPECT_EQ(Cache->stats().ResidentBytes,
            S.ChargedBytes[static_cast<size_t>(MemCategory::EvalKeys)]);
}

TEST_F(KeyCacheTest, PinnedKeysAreNotEvicted) {
  uint64_t G = Cache->declareRotation(4);
  auto Pinned = Cache->get(G);
  ASSERT_TRUE(Pinned.ok());
  // The shared_ptr handle keeps the entry hot: eviction must skip it so
  // accounting stays honest while an op is mid-flight with the key.
  EXPECT_EQ(Cache->evictColdest(SIZE_MAX), 0u);
  EXPECT_EQ(Cache->stats().ResidentCount, 1u);

  *Pinned = nullptr; // drop the pin
  EXPECT_GT(Cache->evictColdest(SIZE_MAX), 0u);
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);
}

TEST_F(KeyCacheTest, RedeclarationWidensTruncation) {
  uint64_t G = Cache->declareRotation(6, /*MaxNumQ=*/3);
  auto Narrow = Cache->get(G);
  ASSERT_TRUE(Narrow.ok());
  EXPECT_EQ((*Narrow)->Parts.size(), 3u);

  // Widening to the full chain drops the narrower cached key; the next
  // get() builds the wide one.
  Cache->declareRotation(6, /*MaxNumQ=*/0);
  auto Wide = Cache->get(G);
  ASSERT_TRUE(Wide.ok());
  EXPECT_EQ((*Wide)->Parts.size(), Ctx->chainLength());
}

TEST_F(KeyCacheTest, GaloisRedeclarationWidensAndNeverNarrows) {
  // Raw Galois declarations (bootstrap SubSum, conjugation) follow the
  // same widen-and-invalidate rule as rotations: a key cached at a
  // narrower truncation must not keep serving once a deeper use is
  // declared — the hot tier's depth assert is compiled out in release.
  uint64_t G = galoisForConjugation(Ctx->degree());
  Cache->declareGalois(G, /*MaxNumQ=*/3);
  auto Narrow = Cache->get(G);
  ASSERT_TRUE(Narrow.ok());
  EXPECT_EQ((*Narrow)->Parts.size(), 3u);
  *Narrow = nullptr; // unpin so the widening can drop it

  Cache->declareGalois(G, /*MaxNumQ=*/0);
  auto Wide = Cache->get(G);
  ASSERT_TRUE(Wide.ok());
  EXPECT_EQ((*Wide)->Parts.size(), Ctx->chainLength());
  *Wide = nullptr;

  // A later narrower declaration keeps the full-depth key resident.
  Cache->declareGalois(G, /*MaxNumQ=*/2);
  auto Kept = Cache->get(G);
  ASSERT_TRUE(Kept.ok());
  EXPECT_EQ((*Kept)->Parts.size(), Ctx->chainLength());
}

TEST_F(KeyCacheTest, BudgetRefusalIsResourceExhaustedNotACrash) {
  Cache->declareRotation(7);
  std::vector<double> X = randomSlots(11);
  Ciphertext Ct = Encrypt->encryptValues(*Enc, X, 3);

  // Force the admission refusal without a real tight budget. The
  // checked tier must surface it verbatim (not misclassify it as a
  // missing key) and leave no partial entry behind.
  FaultInjector::instance().arm(FaultKind::BudgetExceeded, /*Count=*/1);
  auto Refused = Eval->checkedRotate(Ct, 7);
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Cache->stats().ResidentCount, 0u);

  // The fault fired once; the same op now succeeds end to end.
  auto Ok = Eval->checkedRotate(Ct, 7);
  ASSERT_TRUE(Ok.ok()) << Ok.status().message();
  auto Out = Decrypt->decryptRealValues(*Enc, *Ok);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_NEAR(Out[I], X[(I + 7) % Ctx->slots()], 1e-5);
}

TEST_F(KeyCacheTest, ReleaseAllKeepsDeclarations) {
  Cache->declareRotation(1);
  Cache->declareGalois(2 * Ctx->degree() - 1); // conjugation element
  uint64_t G1 = galoisForRotation(Ctx->degree(), Ctx->slots(), 1);
  ASSERT_TRUE(Cache->get(G1).ok());
  EXPECT_GT(Cache->releaseAll(), 0u);
  EXPECT_EQ(Cache->stats().ResidentBytes, 0u);
  EXPECT_EQ(Cache->stats().DeclaredCount, 2u);
  EXPECT_TRUE(Cache->get(G1).ok());
}

} // namespace
