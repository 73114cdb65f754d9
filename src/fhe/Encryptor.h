//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public-key encryption and secret-key decryption (paper Fig. 1 and the
/// threat model of Fig. 2: the client encrypts with the public key, the
/// server computes, the client decrypts with its secret key). The
/// ANT-ACE-generated encryptor/decryptor pair in the compiled program is a
/// thin wrapper over these classes plus the Encoder.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_ENCRYPTOR_H
#define ACE_FHE_ENCRYPTOR_H

#include "fhe/Encoder.h"
#include "fhe/Keys.h"
#include "support/Rng.h"

namespace ace {
namespace fhe {

/// Encrypts plaintexts under a public key.
class Encryptor {
public:
  /// Encryption randomness derives from \p Seed (a key set's seed).
  Encryptor(const Context &Ctx, const PublicKey &Key, uint64_t Seed);
  /// Same, seeded from the context parameters' seed.
  Encryptor(const Context &Ctx, const PublicKey &Key)
      : Encryptor(Ctx, Key, Ctx.params().Seed) {}

  /// Encrypts \p Plain at its level; the result carries the plaintext's
  /// scale and slot count.
  Ciphertext encrypt(const Plaintext &Plain);

  /// Convenience: encode \p Values at the context scale with \p NumQ
  /// active primes and encrypt.
  Ciphertext encryptValues(const Encoder &Enc,
                           const std::vector<double> &Values, size_t NumQ);

  /// Release-mode validated variant of encryptValues: verifies \p NumQ
  /// lies within the modulus chain and \p Values fits the slot count,
  /// and routes the fresh ciphertext through the fault-injection hook
  /// (applyCiphertextFaults) so armed metadata corruptions take effect.
  StatusOr<Ciphertext> checkedEncryptValues(const Encoder &Enc,
                                            const std::vector<double> &Values,
                                            size_t NumQ);

private:
  const Context &Ctx;
  const PublicKey &Key;
  Rng Rand;
};

/// Fault-injection hook for freshly produced ciphertexts: applies any
/// armed metadata corruption (scale drift, slot-count corruption,
/// inconsistent prime-chain truncation) to \p Ct. No-op when the
/// injector has nothing armed.
void applyCiphertextFaults(Ciphertext &Ct);

/// Decrypts ciphertexts with the secret key.
class Decryptor {
public:
  Decryptor(const Context &Ctx, const SecretKey &Key);

  /// Decrypts to a plaintext (handles both 2- and 3-polynomial
  /// ciphertexts; the latter uses s^2 directly, as a debugging aid).
  Plaintext decrypt(const Ciphertext &Ct);

  /// Decrypts and decodes to complex slot values.
  std::vector<std::complex<double>> decryptValues(const Encoder &Enc,
                                                  const Ciphertext &Ct);

  /// Decrypts and decodes, returning real parts only.
  std::vector<double> decryptRealValues(const Encoder &Enc,
                                        const Ciphertext &Ct);

  /// Release-mode validated variant of decryptRealValues: rejects
  /// malformed or metadata-corrupted ciphertexts with a diagnostic
  /// instead of decoding garbage.
  StatusOr<std::vector<double>>
  checkedDecryptRealValues(const Encoder &Enc, const Ciphertext &Ct);

private:
  const Context &Ctx;
  const SecretKey &Key;
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_ENCRYPTOR_H
