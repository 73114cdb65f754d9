//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Encryptor.h"

#include "support/FaultInjector.h"

#include <cassert>

using namespace ace;
using namespace ace::fhe;

void ace::fhe::applyCiphertextFaults(Ciphertext &Ct) {
  FaultInjector &Faults = FaultInjector::instance();
  if (!Faults.enabled())
    return;
  // Each corruption models a realistic bug class: scale bookkeeping gone
  // wrong (the CHET/nGraph-HE2 failure mode), a mispacked tensor, and a
  // rescale that dropped a prime from only part of the ciphertext.
  if (Faults.shouldFire(FaultKind::ScaleDrift))
    Ct.Scale *= 1.05;
  if (Faults.shouldFire(FaultKind::SlotCorrupt))
    Ct.Slots = Ct.Slots * 2 + 1;
  if (Faults.shouldFire(FaultKind::TruncateChain) && !Ct.Polys.empty() &&
      Ct.Polys.back().numQ() > 1)
    Ct.Polys.back().dropLastQ();
}

Encryptor::Encryptor(const Context &Ctx, const PublicKey &Key, uint64_t Seed)
    : Ctx(Ctx), Key(Key), Rand(Seed ^ 0x9e3779b9ULL) {}

/// Samples a small signed polynomial (ternary or CBD noise) directly into
/// RNS coefficient form.
static RnsPoly sampleSmall(const Context &Ctx, Rng &Rand, size_t NumQ,
                           bool Ternary) {
  RnsPoly Poly(Ctx, NumQ, /*HasSpecial=*/false, /*NttForm=*/false);
  size_t N = Ctx.degree();
  std::vector<int32_t> Coeffs(N);
  for (auto &C : Coeffs)
    C = Ternary ? Rand.ternary() : Rand.noiseCbd();
  for (size_t I = 0; I < NumQ; ++I) {
    uint64_t P = Ctx.qModulus(I);
    uint64_t *Comp = Poly.component(I);
    for (size_t J = 0; J < N; ++J) {
      int32_t V = Coeffs[J];
      Comp[J] = V >= 0 ? static_cast<uint64_t>(V)
                       : P - static_cast<uint64_t>(-V);
    }
  }
  return Poly;
}

Ciphertext Encryptor::encrypt(const Plaintext &Plain) {
  assert(Plain.Poly.isNtt() && "plaintext must be in NTT form");
  size_t NumQ = Plain.numQ();

  RnsPoly U = sampleSmall(Ctx, Rand, NumQ, /*Ternary=*/true);
  U.toNtt();
  RnsPoly E0 = sampleSmall(Ctx, Rand, NumQ, /*Ternary=*/false);
  E0.toNtt();
  RnsPoly E1 = sampleSmall(Ctx, Rand, NumQ, /*Ternary=*/false);
  E1.toNtt();

  RnsPoly B = Key.B.restrictedCopy(NumQ, /*KeepSpecial=*/false);
  RnsPoly A = Key.A.restrictedCopy(NumQ, /*KeepSpecial=*/false);

  Ciphertext Ct;
  Ct.Scale = Plain.Scale;
  Ct.Slots = Plain.Slots;
  // c0 = b*u + e0 + m; c1 = a*u + e1.
  RnsPoly C0 = B.mul(U);
  C0.addInPlace(E0);
  C0.addInPlace(Plain.Poly);
  RnsPoly C1 = A.mul(U);
  C1.addInPlace(E1);
  Ct.Polys.push_back(std::move(C0));
  Ct.Polys.push_back(std::move(C1));
  return Ct;
}

Ciphertext Encryptor::encryptValues(const Encoder &Enc,
                                    const std::vector<double> &Values,
                                    size_t NumQ) {
  return encrypt(Enc.encodeReal(Values, Ctx.scale(), NumQ));
}

StatusOr<Ciphertext>
Encryptor::checkedEncryptValues(const Encoder &Enc,
                                const std::vector<double> &Values,
                                size_t NumQ) {
  if (NumQ < 1 || NumQ > Ctx.chainLength())
    return Status::levelMismatch(
        "encrypt: requested " + std::to_string(NumQ) +
        " active primes but the modulus chain holds " +
        std::to_string(Ctx.chainLength()));
  if (Values.size() > Ctx.slots())
    return Status::invalidArgument(
        "encrypt: " + std::to_string(Values.size()) +
        " values exceed the context's " + std::to_string(Ctx.slots()) +
        " slots");
  Ciphertext Ct = encryptValues(Enc, Values, NumQ);
  applyCiphertextFaults(Ct);
  return Ct;
}

Decryptor::Decryptor(const Context &Ctx, const SecretKey &Key)
    : Ctx(Ctx), Key(Key) {}

Plaintext Decryptor::decrypt(const Ciphertext &Ct) {
  assert(Ct.size() >= 2 && Ct.size() <= 3 && "malformed ciphertext");
  size_t NumQ = Ct.numQ();
  RnsPoly S = Key.S.restrictedCopy(NumQ, /*KeepSpecial=*/false);

  // m = c0 + c1*s (+ c2*s^2).
  RnsPoly M = Ct.Polys[0];
  assert(M.isNtt() && "ciphertext must be in NTT form");
  M.mulAddInPlace(Ct.Polys[1], S);
  if (Ct.size() == 3) {
    RnsPoly S2 = S.mul(S);
    M.mulAddInPlace(Ct.Polys[2], S2);
  }

  Plaintext Plain;
  Plain.Poly = std::move(M);
  Plain.Scale = Ct.Scale;
  Plain.Slots = Ct.Slots;
  return Plain;
}

std::vector<std::complex<double>>
Decryptor::decryptValues(const Encoder &Enc, const Ciphertext &Ct) {
  return Enc.decode(decrypt(Ct));
}

std::vector<double> Decryptor::decryptRealValues(const Encoder &Enc,
                                                 const Ciphertext &Ct) {
  auto Complexes = decryptValues(Enc, Ct);
  std::vector<double> Reals(Complexes.size());
  for (size_t I = 0; I < Complexes.size(); ++I)
    Reals[I] = Complexes[I].real();
  return Reals;
}

StatusOr<std::vector<double>>
Decryptor::checkedDecryptRealValues(const Encoder &Enc,
                                    const Ciphertext &Ct) {
  ACE_RETURN_IF_ERROR(validateCiphertext(Ctx, Ct, "decrypt"));
  return decryptRealValues(Enc, Ct);
}
