//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process execution of a compiled CKKS-IR program against the ACEfhe
/// runtime - the role the generated C program plays in the real ANT-ACE
/// deployment (paper Fig. 2): setup generates exactly the keys the
/// compiler's analysis requested; the encryptor packs and normalizes a
/// tensor per the selected layout; run() interprets the CKKS IR; the
/// decryptor unpacks the logits. Region timing by origin operator feeds
/// the paper's Figure 6 breakdown, and key-material byte counts feed
/// Figure 7. The key-independent half (ProgramRuntime) is built once per
/// program and shared by every executor over it; each executor holds
/// only its own key set.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_CODEGEN_CKKSEXECUTOR_H
#define ACE_CODEGEN_CKKSEXECUTOR_H

#include "air/Pass.h"
#include "fhe/Bootstrapper.h"
#include "fhe/Encryptor.h"
#include "nn/Executor.h"
#include "support/Cancellation.h"
#include "support/Timer.h"

#include <map>
#include <memory>
#include <mutex>

namespace ace {
namespace codegen {

/// The key-independent half of running one compiled program: the context
/// (from the selected parameters unmodified), encoder, bootstrap diagonals,
/// encoded weights, and the tables setup() and run() read. Encodings
/// depend on the primes, not the keys, so one runtime serves every key set
/// (every service session). Thread-safe: the caches fill on first use and
/// never erase; their one mutex guards lookups and inserts, never an
/// encode, so it is never held across a fork. A racing first use encodes
/// the same bits and the first insert wins.
class ProgramRuntime {
public:
  /// \p State.SelectedParams must be valid; \p F must outlive the runtime.
  ProgramRuntime(const air::IrFunction &F, const air::CompileState &State);

  const fhe::Context &context() const { return Ctx; }
  const fhe::Encoder &encoder() const { return Enc; }
  fhe::DiagonalStore &diagonals() { return Diagonals; }
  /// \p ConstNode's values encoded at \p Scale over \p NumQ primes.
  const fhe::Plaintext &encodedWeight(const air::IrNode *ConstNode,
                                      size_t NumQ, double Scale);
  /// Bytes of encoded weights held so far.
  size_t weightBytes() const;

  /// Key declarations in generation order: the bootstrap's SubSum Galois
  /// elements, then rotation steps with the prime count their key is
  /// truncated to (0 = full depth: the bootstrap's steps and the Expert
  /// baseline's power-of-two set; the analyzed steps are truncated to the
  /// deepest level they are used at).
  std::vector<uint64_t> BootstrapGalois;
  std::vector<std::pair<int64_t, size_t>> RotationKeys;
  /// Rotate nodes by operand (analyzed key set only). SSA keeps the
  /// operand fixed, so a group of two or more runs as one hoisted batch
  /// (one digit decomposition) at its first member.
  std::map<int, std::vector<const air::IrNode *>> RotateGroups;

private:
  const fhe::Context Ctx;
  const fhe::Encoder Enc;
  mutable std::mutex Mutex;
  fhe::DiagonalStore Diagonals{Mutex};
  /// Keyed by (node id, numQ, log2 scale bucket).
  std::map<std::tuple<int, size_t, int64_t>, fhe::Plaintext> Weights;
};

/// Executes one compiled program under one key set.
class CkksExecutor {
public:
  /// \p F must be in the CKKS dialect; \p State the post-pipeline state.
  /// Both must outlive the executor. \p Runtime, when given, must be
  /// built over them; otherwise setup() builds a private one.
  CkksExecutor(const air::IrFunction &F, const air::CompileState &State,
               std::shared_ptr<ProgramRuntime> Runtime = nullptr);

  /// Builds the runtime if there is none yet, then a key set (secret,
  /// public, relin, rotation set from the key analysis, bootstrap Galois
  /// set) with its evaluator and bootstrapper. \p SeedOverride = 0 keeps
  /// the compiled parameters' seed; a nonzero value draws keys INDEPENDENT
  /// of every other key set (the service's per-session isolation). A
  /// second call replaces the key set and keeps the runtime.
  Status setup(uint64_t SeedOverride = 0);

  /// Pre-setup() policy switch: rotation/Galois keys are *declared* on a
  /// RotationKeyCache and materialize on first use, charged to the
  /// ResourceGovernor, whose reclaim pass evicts cold keys under budget
  /// pressure (they regenerate transparently). Relinearization and
  /// conjugation keys stay eager. Every service session is lazy; one-shot
  /// runs keep the eager default.
  void enableLazyRotationKeys() { LazyRotationKeys = true; }

  /// The lazy key cache, or nullptr in eager mode / before setup().
  fhe::RotationKeyCache *keyCache() const {
    return Session ? Session->KeyCache.get() : nullptr;
  }

  /// Client-side: packs, normalizes, encodes and encrypts a tensor.
  /// Routes through the checked encryptor, so injected ciphertext faults
  /// (and bad layouts) surface here as a Status.
  StatusOr<fhe::Ciphertext> encryptInput(const nn::Tensor &Input);

  /// Server-side: runs the encrypted inference. Every homomorphic step
  /// goes through the checked evaluator tier: a corrupted operand or a
  /// missing key aborts the run with a diagnostic Status instead of
  /// crashing the process. Honors the cancellation token installed on
  /// the calling thread (CancellationScope): an expired deadline or a
  /// cancel() unwinds between IR nodes with
  /// Status(DeadlineExceeded/Cancelled) - never mid-op, so no
  /// half-written ciphertext escapes.
  StatusOr<fhe::Ciphertext> run(const fhe::Ciphertext &Input);

  /// Client-side: decrypts and unpacks the logits.
  StatusOr<std::vector<double>> decryptLogits(const fhe::Ciphertext &Output);

  /// Convenience: encrypt, run, decrypt.
  StatusOr<std::vector<double>> infer(const nn::Tensor &Input);

  /// Wall time per origin operator kind for the last run() (Fig. 6).
  const TimingRegistry &regionTimes() const { return RegionTimes; }

  /// Bytes of FHE material this executor holds (Fig. 7), computed on
  /// demand from the objects that own them.
  struct MemoryUsage {
    size_t SecretKey = 0;
    size_t PublicKey = 0;
    /// Relin + conjugation + rotation/Galois keys; with lazy keys, the
    /// rotation share is the key cache's resident bytes (the same bytes
    /// the cache charges to the governor's EvalKeys gauge).
    size_t EvalKeys = 0;
    /// Encoded weights held by the runtime (shared by its executors).
    size_t Plaintexts = 0;

    /// The "CKKS-Keys" share in Figure 7.
    size_t evaluationKeyBytes() const { return EvalKeys; }
    size_t total() const {
      return SecretKey + PublicKey + EvalKeys + Plaintexts;
    }
  };
  MemoryUsage memory() const;

  /// Seconds spent in setup (key generation dominates).
  double setupSeconds() const { return SetupSeconds; }

  /// Valid after setup(). The service fingerprints publicKey() to pin
  /// requests to the session that encrypted them.
  const fhe::Context &context() const { return Runtime->context(); }
  const fhe::EvalKeys &evalKeys() const { return Session->Keys; }
  const fhe::PublicKey &publicKey() const { return Session->Pub; }

private:
  /// One key set over the runtime; members are declared so that each
  /// destructs before what it references.
  struct KeySet {
    KeySet(ProgramRuntime &RT, const air::CompileState &State, uint64_t Seed,
           bool LazyRotationKeys);
    fhe::KeyGenerator Gen;
    fhe::PublicKey Pub;
    fhe::EvalKeys Keys;
    std::unique_ptr<fhe::RotationKeyCache> KeyCache;
    fhe::Evaluator Eval;
    std::unique_ptr<fhe::Bootstrapper> Boot;
    fhe::Encryptor Encrypt;
    fhe::Decryptor Decrypt;
  };

  const air::IrFunction &F;
  const air::CompileState &State;
  std::shared_ptr<ProgramRuntime> Runtime;
  bool LazyRotationKeys = false;
  std::unique_ptr<KeySet> Session;
  TimingRegistry RegionTimes;
  double SetupSeconds = 0.0;
};

} // namespace codegen
} // namespace ace

#endif // ACE_CODEGEN_CKKSEXECUTOR_H
