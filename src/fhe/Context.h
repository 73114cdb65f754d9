//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RNS-CKKS scheme parameters and the shared Context object. A Context owns
/// the modulus chain (q_0 .. q_{L-1} plus one key-switching special prime),
/// the NTT tables for every modulus, and the per-level precomputations used
/// by rescale and mod-down. Every other runtime object (polynomials, keys,
/// evaluator, bootstrapper) references one Context.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_CONTEXT_H
#define ACE_FHE_CONTEXT_H

#include "fhe/Ntt.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace ace {
namespace fhe {

/// User-facing RNS-CKKS parameter set.
///
/// The modulus chain is q_0 (LogFirstModulus bits), then NumRescaleModuli
/// primes of LogScale bits each, then one special prime of LogSpecialModulus
/// bits used only during key switching. The multiplicative depth budget is
/// NumRescaleModuli. The compiler's automatic parameter selection (paper
/// Sec. 4.4) produces values for this struct.
struct CkksParams {
  /// Ring degree N; a power of two.
  size_t RingDegree = 1ULL << 12;
  /// Number of plaintext slots; a power of two, at most RingDegree / 2.
  /// Fewer slots than N/2 selects sparse packing (required by the
  /// bootstrapper's linear transforms).
  size_t Slots = 1ULL << 11;
  /// log2 of the encoding scale Delta.
  int LogScale = 40;
  /// log2 of the base modulus q_0 (bounds output precision, paper Q_0).
  int LogFirstModulus = 50;
  /// Number of rescale primes = multiplicative depth budget.
  int NumRescaleModuli = 8;
  /// log2 of the key-switching special prime.
  int LogSpecialModulus = 59;
  /// Use a sparse ternary secret of Hamming weight 64 (standard practice
  /// for bootstrappable CKKS; bounds the ModRaise overflow count K).
  bool SparseSecret = false;
  /// Default seed of KeyGenerator and Encryptor (a key set passes its
  /// own seed explicitly; the Context never reads it).
  uint64_t Seed = 1;

  /// True when the derived modulus chain is plausible (degree a power of
  /// two, slots in range, prime sizes in [20, 60]).
  bool valid() const;
};

/// Shared immutable state for one CKKS instantiation.
class Context {
public:
  /// Builds the modulus chain and all NTT tables. Asserts on invalid
  /// parameters (use CkksParams::valid() for recoverable checking).
  explicit Context(const CkksParams &Params);

  const CkksParams &params() const { return Params; }
  size_t degree() const { return Params.RingDegree; }
  size_t slots() const { return Params.Slots; }

  /// Number of q-chain primes (excluding the special prime).
  size_t chainLength() const { return QModuli.size(); }

  /// The i-th q-chain prime.
  uint64_t qModulus(size_t I) const { return QModuli[I]; }

  /// The key-switching special prime P.
  uint64_t specialModulus() const { return SpecialPrime; }

  /// NTT tables; index 0..chainLength()-1 are the q primes, index
  /// chainLength() is the special prime.
  const NttTable &nttTable(size_t ModIndex) const {
    return *NttTables[ModIndex];
  }

  /// Index of the special prime in the nttTable() numbering.
  size_t specialIndex() const { return QModuli.size(); }

  /// inv(q_l) mod q_j, for rescaling from l+1 to l active primes (j < l).
  uint64_t invQLastModQ(size_t L, size_t J) const {
    return InvQLastModQ[L][J];
  }

  /// inv(P) mod q_j, for mod-down after key switching.
  uint64_t invSpecialModQ(size_t J) const { return InvSpecialModQ[J]; }

  /// The default encoding scale Delta = 2^LogScale.
  double scale() const { return Scale; }

  /// q_0 as a double (used by the bootstrapper's EvalMod normalization).
  double firstModulus() const { return static_cast<double>(QModuli[0]); }

  /// Bytes occupied by one polynomial component (one modulus): N * 8.
  size_t bytesPerComponent() const { return Params.RingDegree * 8; }

  /// NTT-domain index permutation of the Galois automorphism
  /// X -> X^Galois. In the Harvey layout slot i of an NTT-form component
  /// holds the evaluation at psi^(2*bitrev(i)+1), so the automorphism is
  /// the modulus-independent gather result[i] = src[perm[i]] with
  /// perm[i] = bitrev(((Galois * (2*bitrev(i)+1)) mod 2N - 1) / 2) -- no
  /// coefficient negation, unlike the coefficient-domain automorphism
  /// (see docs/architecture.md). Built lazily per Galois element and
  /// cached; thread-safe, but callers inside parallelFor regions should
  /// warm the cache first so workers only hit the fast path.
  const std::vector<uint32_t> &galoisNttPermutation(uint64_t Galois) const;

private:
  CkksParams Params;
  std::vector<uint64_t> QModuli;
  uint64_t SpecialPrime = 0;
  std::vector<std::unique_ptr<NttTable>> NttTables;
  std::vector<std::vector<uint64_t>> InvQLastModQ;
  std::vector<uint64_t> InvSpecialModQ;
  double Scale = 0.0;
  /// Lazily built Galois NTT permutations, keyed by Galois element.
  mutable std::mutex GaloisPermMutex;
  mutable std::map<uint64_t, std::vector<uint32_t>> GaloisNttPerms;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_CONTEXT_H
