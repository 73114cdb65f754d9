//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CKKS canonical-embedding encoder/decoder (paper Fig. 1: message <->
/// plaintext). A message of n complex slots (n a power of two, n <= N/2) is
/// mapped through the inverse special FFT to a real polynomial, scaled by
/// Delta, rounded, and carried into RNS form. For n < N/2 the coefficients
/// are placed with stride N/(2n) ("sparse packing"), which embeds the
/// message in the subring Z[X^gap] - the layout the bootstrapper's linear
/// transforms assume. Decoding inverts the pipeline using exact
/// mixed-radix (Garner) CRT reconstruction of the signed coefficients.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_ENCODER_H
#define ACE_FHE_ENCODER_H

#include "fhe/Cipher.h"
#include "fhe/Context.h"

#include <complex>
#include <vector>

namespace ace {
namespace fhe {

/// Encoder bound to a Context; precomputes root tables per slot count.
class Encoder {
public:
  explicit Encoder(const Context &Ctx);

  const Context &context() const { return Ctx; }

  /// Encodes \p Values (size <= Slots; zero-padded) into a plaintext with
  /// \p NumQ active primes at scale \p Scale. The result is in NTT form,
  /// ready for ciphertext-plaintext products.
  Plaintext encode(const std::vector<std::complex<double>> &Values,
                   double Scale, size_t NumQ) const;

  /// Real-vector convenience overload.
  Plaintext encodeReal(const std::vector<double> &Values, double Scale,
                       size_t NumQ) const;

  /// Encodes the constant \p Value replicated across all slots.
  Plaintext encodeConstant(double Value, double Scale, size_t NumQ) const;

  /// Decodes a coefficient-domain polynomial at \p Scale into slot values.
  std::vector<std::complex<double>> decode(const RnsPoly &Poly,
                                           double Scale) const;

  /// Decodes a plaintext (any domain) into slot values.
  std::vector<std::complex<double>> decode(const Plaintext &Plain) const;

  /// The number of slots this encoder packs (Context::slots()).
  size_t slots() const { return Slots; }

  /// Forward special FFT (coefficient pairs -> slot values), exposed for
  /// the bootstrapper, which needs the same root ordering to build its
  /// CoeffToSlot / SlotToCoeff matrices.
  void fftSpecial(std::vector<std::complex<double>> &Values) const;

  /// Inverse special FFT (slot values -> coefficient pairs), including the
  /// 1/n normalization.
  void fftSpecialInv(std::vector<std::complex<double>> &Values) const;

  /// The primitive 4n-th root zeta_j = omega^{5^j} at which slot j
  /// evaluates the subring polynomial; used to build bootstrap matrices.
  std::complex<double> slotRoot(size_t J) const;

  /// Converts signed coefficient values into an RNS polynomial (NTT form
  /// off) with \p NumQ primes. Values must satisfy |v| < 2^62.
  RnsPoly coeffsToPoly(const std::vector<long double> &Coeffs,
                       size_t NumQ) const;

  /// Exact signed CRT reconstruction of every coefficient of \p Poly
  /// (coefficient domain) as long double.
  std::vector<long double> polyToCoeffs(const RnsPoly &Poly) const;

private:
  const Context &Ctx;
  size_t Slots;
  /// 5^j mod 4n for j < n (slot evaluation-point ordering).
  std::vector<uint64_t> RotGroup;
  /// omega^k for k <= 4n, omega = exp(2*pi*i / 4n).
  std::vector<std::complex<double>> KsiPows;

  /// Garner-reconstruction tables, built at construction: a prefix of
  /// each serves every active-prime count, so decoding from several
  /// threads reads them without a lock.
  std::vector<uint64_t> InvPartialProd;   // inv(q_0..q_{i-1}) mod q_i
  std::vector<long double> PartialProdLd; // q_0..q_{i-1}, i <= chain length

  /// Reconstructs one coefficient given its residues (strided access into
  /// component arrays).
  long double reconstructSigned(const RnsPoly &Poly, size_t CoeffIndex) const;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_ENCODER_H
