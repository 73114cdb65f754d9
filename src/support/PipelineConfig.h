//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiler pipeline knobs: the rescale/relinearize placement policy of
/// the SIHE->CKKS lowering and the packing strategy of the NN->VECTOR
/// lowering (docs/compiler.md). The placement policy is a plain
/// CompileOptions field. The packing strategy resolves an explicit
/// CompileOptions value first, then the ACE_PACKING environment variable
/// (so the CI matrix can sweep whole test suites through diag/bsgs), then
/// the per-layer cost model.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_PIPELINE_CONFIG_H
#define ACE_SUPPORT_PIPELINE_CONFIG_H

namespace ace {

/// Rescale/relinearize placement policy (docs/compiler.md).
enum class RescaleMode {
  /// ANT-ACE's last-responsible-moment placement: memoized settles,
  /// rescales sunk past same-scale additions, relinearization deferred
  /// (Cipher3 flows through additions and scalar ops) and fused over
  /// added products; canonical form is produced only at rotations, ct-ct
  /// multiply operands, bootstraps, and the return value.
  RM_Lazy,
  /// Settle the pending rescale and relinearize immediately after every
  /// producer: the Expert baseline's hand placement (paper Sec. 6) and
  /// the reference the op-budget contract measures lazy against.
  RM_Eager,
};

/// Matrix-vector packing strategy of the NN->VECTOR lowering.
enum class PackingStrategy {
  /// Per-layer cost model (docs/compiler.md) picks among the concrete
  /// strategies below.
  PS_Auto,
  /// Halevi-Shoup diagonals as an explicit rotate/mask/add chain: one
  /// (hoistable) rotation and one ct-pt multiply per nonzero diagonal,
  /// one rotation key per distinct diagonal.
  PS_Diag,
  /// Baby-step/giant-step mat_diag (O(sqrt n) rotations and keys).
  PS_Bsgs,
  /// Column packing: replicate the input across K padded blocks, one
  /// wide ct-pt multiply, then a rotate-and-add reduction. Costs a slot
  /// grid large enough for K_pad * block and two multiplicative levels;
  /// only eligible on flat (non-spatial) layouts.
  PS_Column,
};

/// Printable knob values ("lazy", "bsgs", ...).
const char *rescaleModeName(RescaleMode Mode);
const char *packingStrategyName(PackingStrategy Strategy);

/// Parses a knob spelling; returns false on unknown input. Accepted
/// rescale spellings: eager, lazy. Accepted packing spellings: auto,
/// diag, bsgs, column.
bool parseRescaleMode(const char *Spec, RescaleMode &Out);
bool parsePackingStrategy(const char *Spec, PackingStrategy &Out);

/// Resolves the packing knob: an explicit (non-Auto) option wins, then
/// ACE_PACKING (re-read on every resolve so tests can flip it). An Auto
/// result means the per-layer cost model chooses. Unknown environment
/// values warn once and fall through; they never abort.
PackingStrategy resolvePackingStrategy(PackingStrategy Option);

} // namespace ace

#endif // ACE_SUPPORT_PIPELINE_CONFIG_H
