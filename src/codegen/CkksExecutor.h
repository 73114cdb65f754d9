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
/// Figure 7.
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

#include <memory>

namespace ace {
namespace codegen {

/// Executes one compiled program.
class CkksExecutor {
public:
  /// \p F must be in the CKKS dialect; \p State the post-pipeline state.
  /// Both must outlive the executor.
  CkksExecutor(const air::IrFunction &F, const air::CompileState &State);
  ~CkksExecutor();

  /// Builds the context, generates keys (secret, public, relin,
  /// rotation set from the key analysis, bootstrap Galois set), and
  /// instantiates evaluator + bootstrapper. \p SeedOverride = 0 keeps
  /// the compiled parameters' deterministic seed; a nonzero value
  /// reseeds the context so this executor draws INDEPENDENT key
  /// material from every other executor over the same program (the
  /// per-session isolation the inference service relies on).
  Status setup(uint64_t SeedOverride = 0);

  /// Pre-setup() policy switch: generate rotation/Galois keys lazily
  /// through a RotationKeyCache instead of eagerly at setup. The
  /// compiler's analyzed step set (with truncation levels) and the
  /// bootstrap Galois set are *declared*; each key materializes on first
  /// use, charged to the ResourceGovernor, and the governor's reclaim
  /// pass evicts cold keys under budget pressure (they regenerate
  /// transparently on next use). Relinearization and conjugation keys
  /// stay eager - every program needs them throughout. The inference
  /// service turns this on for every session; one-shot runs keep the
  /// eager default, whose setup cost and key-byte reporting are
  /// unchanged.
  void enableLazyRotationKeys() { LazyRotationKeys = true; }

  /// The lazy key cache, or nullptr in eager mode / before setup().
  fhe::RotationKeyCache *keyCache() const { return KeyCache.get(); }

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

  /// Same, but runs under \p Token for the duration of the call (the
  /// inference service's per-request entry point).
  StatusOr<fhe::Ciphertext> run(const fhe::Ciphertext &Input,
                                const CancellationToken &Token);

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
    /// Encoded weights held by the plaintext cache.
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

  const fhe::Context &context() const { return *Ctx; }
  const fhe::EvalKeys &evalKeys() const { return Keys; }
  /// The public key generated by setup() (the service layer fingerprints
  /// it to pin requests to the session that encrypted them).
  const fhe::PublicKey &publicKey() const { return Pub; }

private:
  const air::IrFunction &F;
  const air::CompileState &State;

  std::unique_ptr<fhe::Context> Ctx;
  std::unique_ptr<fhe::Encoder> Enc;
  std::unique_ptr<fhe::KeyGenerator> Gen;
  /// Declared after Gen/Ctx (it references both) so it destructs first.
  std::unique_ptr<fhe::RotationKeyCache> KeyCache;
  bool LazyRotationKeys = false;
  fhe::PublicKey Pub;
  fhe::EvalKeys Keys;
  std::unique_ptr<fhe::Evaluator> Eval;
  std::unique_ptr<fhe::Bootstrapper> Boot;
  std::unique_ptr<fhe::Encryptor> Encrypt;
  std::unique_ptr<fhe::Decryptor> Decrypt;

  TimingRegistry RegionTimes;
  double SetupSeconds = 0.0;

  /// Encoded-plaintext cache: (node id, numQ, log2 scale bucket).
  std::map<std::tuple<int, size_t, int64_t>, fhe::Plaintext> PlainCache;

  const fhe::Plaintext &encodedConst(const air::IrNode *ConstNode,
                                     const fhe::Ciphertext &For,
                                     bool ForMul);
};

} // namespace codegen
} // namespace ace

#endif // ACE_CODEGEN_CKKSEXECUTOR_H
