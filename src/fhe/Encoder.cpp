//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Encoder.h"

#include "fhe/ModArith.h"

#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::fhe;

/// In-place bit-reversal permutation of \p Values.
static void bitReversePermute(std::vector<std::complex<double>> &Values) {
  size_t N = Values.size();
  for (size_t I = 1, J = 0; I < N; ++I) {
    size_t Bit = N >> 1;
    for (; J & Bit; Bit >>= 1)
      J ^= Bit;
    J ^= Bit;
    if (I < J)
      std::swap(Values[I], Values[J]);
  }
}

Encoder::Encoder(const Context &Ctx) : Ctx(Ctx), Slots(Ctx.slots()) {
  size_t M = 4 * Slots;
  RotGroup.resize(Slots);
  uint64_t FivePow = 1;
  for (size_t J = 0; J < Slots; ++J) {
    RotGroup[J] = FivePow;
    FivePow = (FivePow * 5) % M;
  }
  KsiPows.resize(M + 1);
  for (size_t K = 0; K <= M; ++K) {
    double Angle = 2.0 * M_PI * static_cast<double>(K) /
                   static_cast<double>(M);
    KsiPows[K] = {std::cos(Angle), std::sin(Angle)};
  }
  size_t L = Ctx.chainLength();
  InvPartialProd.assign(L, 1);
  PartialProdLd.assign(L + 1, 1.0L);
  for (size_t I = 1; I <= L; ++I)
    PartialProdLd[I] =
        PartialProdLd[I - 1] * static_cast<long double>(Ctx.qModulus(I - 1));
  for (size_t I = 1; I < L; ++I) {
    uint64_t QI = Ctx.qModulus(I);
    uint64_t Prod = 1;
    for (size_t J = 0; J < I; ++J)
      Prod = mulMod(Prod, Ctx.qModulus(J) % QI, QI);
    InvPartialProd[I] = invMod(Prod, QI);
  }
}

void Encoder::fftSpecial(std::vector<std::complex<double>> &Values) const {
  size_t N = Values.size();
  assert(N == Slots && "fftSpecial expects exactly the slot count");
  size_t M = 4 * Slots;
  bitReversePermute(Values);
  for (size_t Len = 2; Len <= N; Len <<= 1) {
    for (size_t I = 0; I < N; I += Len) {
      size_t LenH = Len >> 1;
      size_t LenQ = Len << 2;
      for (size_t J = 0; J < LenH; ++J) {
        size_t Idx = (RotGroup[J] % LenQ) * (M / LenQ);
        auto U = Values[I + J];
        auto V = Values[I + J + LenH] * KsiPows[Idx];
        Values[I + J] = U + V;
        Values[I + J + LenH] = U - V;
      }
    }
  }
}

void Encoder::fftSpecialInv(std::vector<std::complex<double>> &Values) const {
  size_t N = Values.size();
  assert(N == Slots && "fftSpecialInv expects exactly the slot count");
  size_t M = 4 * Slots;
  for (size_t Len = N; Len >= 2; Len >>= 1) {
    for (size_t I = 0; I < N; I += Len) {
      size_t LenH = Len >> 1;
      size_t LenQ = Len << 2;
      for (size_t J = 0; J < LenH; ++J) {
        size_t Idx = (LenQ - (RotGroup[J] % LenQ)) * (M / LenQ);
        auto U = Values[I + J] + Values[I + J + LenH];
        auto V = (Values[I + J] - Values[I + J + LenH]) * KsiPows[Idx];
        Values[I + J] = U;
        Values[I + J + LenH] = V;
      }
    }
  }
  bitReversePermute(Values);
  double Inv = 1.0 / static_cast<double>(N);
  for (auto &V : Values)
    V *= Inv;
}

std::complex<double> Encoder::slotRoot(size_t J) const {
  assert(J < Slots && "slot index out of range");
  return KsiPows[RotGroup[J]];
}

RnsPoly Encoder::coeffsToPoly(const std::vector<long double> &Coeffs,
                              size_t NumQ) const {
  size_t N = Ctx.degree();
  assert(Coeffs.size() == N && "coefficient vector must have length N");
  RnsPoly Poly(Ctx, NumQ, /*HasSpecial=*/false, /*NttForm=*/false);
  for (size_t I = 0; I < NumQ; ++I) {
    uint64_t Q = Ctx.qModulus(I);
    uint64_t *Comp = Poly.component(I);
    for (size_t J = 0; J < N; ++J) {
      long double C = Coeffs[J];
      assert(fabsl(C) < 0x1.0p62L &&
             "encoded coefficient exceeds 62 bits; lower the scale");
      int64_t V = static_cast<int64_t>(llroundl(C));
      Comp[J] = V >= 0 ? static_cast<uint64_t>(V) % Q
                       : Q - (static_cast<uint64_t>(-V) % Q);
      if (Comp[J] == Q)
        Comp[J] = 0;
    }
  }
  return Poly;
}

Plaintext Encoder::encode(const std::vector<std::complex<double>> &Values,
                          double Scale, size_t NumQ) const {
  assert(Values.size() <= Slots && "too many values for the slot count");
  assert(Scale > 0 && "scale must be positive");
  size_t N = Ctx.degree();
  size_t Gap = (N / 2) / Slots;

  std::vector<std::complex<double>> Work(Slots, {0.0, 0.0});
  for (size_t J = 0; J < Values.size(); ++J)
    Work[J] = Values[J];
  fftSpecialInv(Work);

  std::vector<long double> Coeffs(N, 0.0L);
  for (size_t J = 0; J < Slots; ++J) {
    Coeffs[J * Gap] = static_cast<long double>(Work[J].real()) *
                      static_cast<long double>(Scale);
    Coeffs[J * Gap + N / 2] = static_cast<long double>(Work[J].imag()) *
                              static_cast<long double>(Scale);
  }

  Plaintext Plain;
  Plain.Poly = coeffsToPoly(Coeffs, NumQ);
  Plain.Poly.toNtt();
  Plain.Scale = Scale;
  Plain.Slots = Slots;
  return Plain;
}

Plaintext Encoder::encodeReal(const std::vector<double> &Values, double Scale,
                              size_t NumQ) const {
  std::vector<std::complex<double>> Complexes(Values.size());
  for (size_t J = 0; J < Values.size(); ++J)
    Complexes[J] = {Values[J], 0.0};
  return encode(Complexes, Scale, NumQ);
}

Plaintext Encoder::encodeConstant(double Value, double Scale,
                                  size_t NumQ) const {
  // A constant across all slots encodes as a constant polynomial: no FFT
  // needed, and no interpolation error.
  size_t N = Ctx.degree();
  std::vector<long double> Coeffs(N, 0.0L);
  Coeffs[0] = static_cast<long double>(Value) *
              static_cast<long double>(Scale);
  Plaintext Plain;
  Plain.Poly = coeffsToPoly(Coeffs, NumQ);
  Plain.Poly.toNtt();
  Plain.Scale = Scale;
  Plain.Slots = Slots;
  return Plain;
}

/// Garner mixed-radix reconstruction of the value with residues produced
/// by \p ResidueAt. Returns the exact value as long double (exact while the
/// value fits the 64-bit mantissa; larger values are only used for sign
/// estimation).
template <typename ResidueFn>
static long double garnerValue(size_t NumQ, const Context &Ctx,
                               const std::vector<long double> &PartialProdLd,
                               const std::vector<uint64_t> &InvPartialProd,
                               ResidueFn ResidueAt) {
  // Mixed-radix digits: x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ...
  uint64_t Digits[64];
  assert(NumQ <= 64 && "chain too long for Garner buffer");
  long double Value = 0.0L;
  for (size_t I = 0; I < NumQ; ++I) {
    uint64_t QI = Ctx.qModulus(I);
    // Partial value (v_0 + v_1 q_0 + ...) reduced mod q_i.
    uint64_t Acc = 0;
    uint64_t Base = 1;
    for (size_t J = 0; J < I; ++J) {
      Acc = addMod(Acc, mulMod(Digits[J] % QI, Base, QI), QI);
      Base = mulMod(Base, Ctx.qModulus(J) % QI, QI);
    }
    uint64_t R = ResidueAt(I);
    uint64_t V = mulMod(subMod(R, Acc, QI), InvPartialProd[I], QI);
    Digits[I] = V;
    Value += static_cast<long double>(V) * PartialProdLd[I];
  }
  return Value;
}

long double Encoder::reconstructSigned(const RnsPoly &Poly,
                                       size_t K) const {
  size_t NumQ = Poly.numQ();
  long double Value =
      garnerValue(NumQ, Ctx, PartialProdLd, InvPartialProd,
                  [&](size_t I) { return Poly.component(I)[K]; });
  if (Value <= PartialProdLd[NumQ] / 2)
    return Value;
  // Negative value: reconstruct -x (which is small) exactly and negate, to
  // avoid the catastrophic cancellation of computing Value - Q in floats.
  long double Negated = garnerValue(
      NumQ, Ctx, PartialProdLd, InvPartialProd, [&](size_t I) {
        uint64_t QI = Ctx.qModulus(I);
        return negMod(Poly.component(I)[K] % QI, QI);
      });
  return -Negated;
}

std::vector<long double> Encoder::polyToCoeffs(const RnsPoly &Poly) const {
  assert(!Poly.isNtt() && "reconstruction requires coefficient domain");
  assert(!Poly.hasSpecial() && "unexpected special component");
  assert(Poly.numQ() >= 1 && Poly.numQ() <= Ctx.chainLength() &&
         "bad prime count");
  size_t N = Ctx.degree();
  std::vector<long double> Coeffs(N);
  for (size_t K = 0; K < N; ++K)
    Coeffs[K] = reconstructSigned(Poly, K);
  return Coeffs;
}

std::vector<std::complex<double>> Encoder::decode(const RnsPoly &Poly,
                                                  double Scale) const {
  std::vector<long double> Coeffs = polyToCoeffs(Poly);
  size_t N = Ctx.degree();
  size_t Gap = (N / 2) / Slots;
  std::vector<std::complex<double>> Values(Slots);
  long double S = static_cast<long double>(Scale);
  for (size_t J = 0; J < Slots; ++J) {
    Values[J] = {static_cast<double>(Coeffs[J * Gap] / S),
                 static_cast<double>(Coeffs[J * Gap + N / 2] / S)};
  }
  fftSpecial(Values);
  return Values;
}

std::vector<std::complex<double>> Encoder::decode(const Plaintext &Plain) const {
  RnsPoly Poly = Plain.Poly;
  Poly.toCoeff();
  return decode(Poly, Plain.Scale);
}
