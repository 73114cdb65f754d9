//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>

using namespace ace;
using namespace ace::codegen;
using namespace ace::air;
using fhe::Ciphertext;
using fhe::Plaintext;

ProgramRuntime::ProgramRuntime(const IrFunction &F, const CompileState &State)
    : Ctx(State.SelectedParams), Enc(Ctx) {
  // Keys restricted to the analyzed requirements (paper RQ2's memory win
  // over every power-of-two key). Bootstrap rotations run at the raised
  // levels and need full-depth keys, even for steps the program shares.
  if (State.BootstrapCount > 0) {
    BootstrapGalois = fhe::Bootstrapper::requiredGaloisElements(Ctx);
    for (int64_t Step : fhe::Bootstrapper::requiredRotations(Ctx))
      RotationKeys.emplace_back(Step, 0);
  }
  if (!State.Options.EnableRotationKeyAnalysis) {
    // The Expert baseline, like hand implementations, generates the exact
    // step set plus the power-of-two set (both directions) at full depth.
    for (int64_t Step : State.RotationSteps)
      RotationKeys.emplace_back(Step, 0);
    for (size_t S = 1; S < Ctx.slots(); S <<= 1) {
      RotationKeys.emplace_back(static_cast<int64_t>(S), 0);
      RotationKeys.emplace_back(static_cast<int64_t>(Ctx.slots() - S), 0);
    }
    return;
  }
  // Level-aware keys: each truncates to the deepest level the dataflow
  // analysis saw its step used at, so compute keys shrink quadratically.
  for (int64_t Step : State.RotationSteps) {
    auto It = State.RotationStepMaxNumQ.find(Step);
    RotationKeys.emplace_back(Step, It != State.RotationStepMaxNumQ.end()
                                        ? It->second
                                        : Ctx.chainLength());
  }
  for (const auto &NPtr : F.nodes())
    if (NPtr->Kind == NodeKind::NK_CkksRotate)
      RotateGroups[NPtr->Operands[0]->Id].push_back(NPtr.get());
}

const Plaintext &ProgramRuntime::encodedWeight(const IrNode *ConstNode,
                                               size_t NumQ, double Scale) {
  auto Key = std::make_tuple(
      ConstNode->Id, NumQ,
      static_cast<int64_t>(std::llround(std::log2(Scale) * 4096.0)));
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto It = Weights.find(Key);
    if (It != Weights.end())
      return It->second;
  }
  Plaintext P = Enc.encodeReal(ConstNode->Data, Scale, NumQ);
  std::lock_guard<std::mutex> Guard(Mutex);
  return Weights.emplace(Key, std::move(P)).first->second;
}

size_t ProgramRuntime::weightBytes() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  size_t Sum = 0;
  for (const auto &[Key, P] : Weights)
    Sum += P.byteSize();
  return Sum;
}

CkksExecutor::KeySet::KeySet(ProgramRuntime &RT, const CompileState &State,
                             uint64_t Seed, bool LazyRotationKeys)
    : Gen(RT.context(), Seed), Pub(Gen.makePublicKey()),
      KeyCache(LazyRotationKeys ? std::make_unique<fhe::RotationKeyCache>(
                                      RT.context(), Gen)
                                : nullptr),
      Eval(RT.context(), RT.encoder(), Keys, KeyCache.get()),
      Encrypt(RT.context(), Pub, Seed), Decrypt(RT.context(), Gen.secretKey()) {
  if (State.BootstrapCount > 0) {
    fhe::BootstrapConfig Cfg;
    Cfg.RangeK = State.Options.BootstrapRangeK;
    Cfg.DoubleAngleCount = State.Options.BootstrapDoubleAngle;
    Cfg.ChebyshevDegree = State.Options.BootstrapChebDegree;
    Boot = std::make_unique<fhe::Bootstrapper>(Eval, Cfg, &RT.diagonals());
  }
  // Lazy: only relin/conjugation are generated here; rotations are
  // declared on the cache (declareRotation keeps the widest truncation
  // when steps overlap) and materialize on first use.
  if (KeyCache)
    for (uint64_t Galois : RT.BootstrapGalois)
      KeyCache->declareGalois(Galois);
  else
    Gen.fillGaloisKeys(Keys, RT.BootstrapGalois);
  Gen.fillEvalKeys(Keys, {}, State.NeedsRelin, State.NeedsConjugation);
  for (auto [Step, MaxNumQ] : RT.RotationKeys) {
    if (KeyCache) {
      KeyCache->declareRotation(Step, MaxNumQ);
      continue;
    }
    uint64_t Galois = fhe::galoisForRotation(RT.context().degree(),
                                             RT.context().slots(), Step);
    if (Galois != 1 && !Keys.Rotations.count(Galois))
      Keys.Rotations.emplace(Galois, Gen.makeRotationKey(Step, MaxNumQ));
  }
}

CkksExecutor::CkksExecutor(const IrFunction &F, const CompileState &State,
                           std::shared_ptr<ProgramRuntime> Runtime)
    : F(F), State(State), Runtime(std::move(Runtime)) {}

Status CkksExecutor::setup(uint64_t SeedOverride) {
  telemetry::TraceSpan Span("executor", "setup");
  WallTimer Clock;
  if (!Runtime) {
    if (!State.SelectedParams.valid())
      return Status::error("invalid selected parameters");
    Runtime = std::make_shared<ProgramRuntime>(F, State);
  }
  Session.reset(); // free the old key set before generating the next
  Session = std::make_unique<KeySet>(
      *Runtime, State, SeedOverride ? SeedOverride : State.SelectedParams.Seed,
      LazyRotationKeys);
  SetupSeconds = Clock.seconds();
  if (telemetry::enabled()) {
    telemetry::Telemetry::instance().recordSnapshot("executor:setup");
    telemetry::Telemetry::instance().sampleRss("rss");
  }
  return Status::success();
}

CkksExecutor::MemoryUsage CkksExecutor::memory() const {
  MemoryUsage M;
  if (!Session)
    return M;
  M.SecretKey = Session->Gen.secretKey().byteSize();
  M.PublicKey = Session->Pub.byteSize();
  M.EvalKeys = Session->Keys.byteSize();
  if (Session->KeyCache)
    M.EvalKeys += Session->KeyCache->stats().ResidentBytes;
  M.Plaintexts = Runtime->weightBytes();
  return M;
}

StatusOr<fhe::Ciphertext>
CkksExecutor::encryptInput(const nn::Tensor &Input) {
  if (!Session)
    return Status::invalidArgument("executor: setup() not run");
  telemetry::TraceSpan Span("executor", "encrypt");
  const CipherLayout &L = State.InputLayout;
  std::vector<double> Slots(L.slotCount(), 0.0);
  double Inv = 1.0 / State.InputDataScale;
  if (Input.Shape.size() == 4) {
    size_t C = Input.Shape[1], H = Input.Shape[2], W = Input.Shape[3];
    if (Input.Values.size() < C * H * W)
      return Status::invalidArgument(
          "executor: input tensor holds " +
          std::to_string(Input.Values.size()) + " values but its shape " +
          std::to_string(C) + "x" + std::to_string(H) + "x" +
          std::to_string(W) + " needs " + std::to_string(C * H * W));
    // Channels map to disjoint slot sets (the layout is injective), so
    // the packing loop is parallel per channel.
    parallelFor(0, C, [&](size_t Cc) {
      for (size_t Hh = 0; Hh < H; ++Hh)
        for (size_t Ww = 0; Ww < W; ++Ww)
          Slots[L.slotOf(Cc, Hh, Ww)] =
              Input.Values[(Cc * H + Hh) * W + Ww] * Inv;
    });
  } else {
    for (size_t I = 0; I < Input.Values.size(); ++I)
      Slots[L.slotOf(0, 0, I)] = Input.Values[I] * Inv;
  }
  return Session->Encrypt.checkedEncryptValues(Runtime->encoder(), Slots,
                                              State.InputNumQ);
}

StatusOr<fhe::Ciphertext> CkksExecutor::run(const Ciphertext &Input) {
  if (!Session)
    return Status::invalidArgument("executor: setup() not run");
  const fhe::Context &Ctx = Runtime->context();
  fhe::Evaluator &Eval = Session->Eval;
  // A fresh client input is always encrypted at the context scale with
  // the layout's packing; rejecting corrupted inputs here catches faults
  // (e.g. metadata drift) that a purely linear program would otherwise
  // carry through to wrong logits, because plaintext encoding adapts to
  // whatever scale the operand claims.
  ACE_RETURN_IF_ERROR(fhe::validateCiphertext(Ctx, Input, "run input"));
  if (!fhe::scalesClose(Input.Scale, Ctx.scale()))
    return Status::scaleMismatch(
        fhe::scaleMismatchMessage("executor input", Input.Scale,
                                  Ctx.scale()) +
        "; fresh inputs must be encrypted at the context scale");
  RegionTimes.clear();
  telemetry::TraceSpan RunSpan("executor", "run");
  std::map<int, Ciphertext> Values;

  // The weight a CkksEncode node wraps, encoded for use with A.
  auto Weight = [&](const IrNode *Encode, const Ciphertext &A,
                    bool ForMul) -> const Plaintext & {
    assert(Encode->Kind == NodeKind::NK_CkksEncode && "expected encode node");
    return Runtime->encodedWeight(Encode->Operands[0], A.numQ(),
                                  ForMul ? Eval.mulPlainScale(A) : A.Scale);
  };

  Ciphertext Result;
  bool HaveResult = false;
  for (const auto &NPtr : F.nodes()) {
    const IrNode *N = NPtr.get();
    if (N->Kind == NodeKind::NK_ConstVec ||
        N->Kind == NodeKind::NK_CkksEncode)
      continue; // materialized at use
    // Cooperative cancellation boundary: one poll per IR node, so a
    // cancelled or deadline-expired request costs at most one more CKKS
    // op before unwinding.
    ACE_RETURN_IF_ERROR(checkCancellation("executor"));
    telemetry::TraceSpan RegionSpan("region", originKindName(N->Origin),
                                    &RegionTimes);
    switch (N->Kind) {
    case NodeKind::NK_Input:
      Values[N->Id] = Input;
      break;
    case NodeKind::NK_CkksRotate: {
      const Ciphertext &A = Values.at(N->Operands[0]->Id);
      int64_t Slots = static_cast<int64_t>(A.Slots);
      if (Slots <= 0)
        return Status::invalidArgument(
            "executor rotate: operand reports " + std::to_string(Slots) +
            " slots");
      int64_t Step = ((N->rotationSteps() % Slots) + Slots) % Slots;
      if (State.Options.EnableRotationKeyAnalysis) {
        if (Values.count(N->Id))
          break; // already served by an earlier hoisted batch
        auto GroupIt = Runtime->RotateGroups.find(N->Operands[0]->Id);
        if (GroupIt != Runtime->RotateGroups.end() &&
            GroupIt->second.size() >= 2) {
          std::vector<int64_t> Steps;
          Steps.reserve(GroupIt->second.size());
          for (const IrNode *Member : GroupIt->second)
            Steps.push_back(Member->rotationSteps());
          ACE_ASSIGN_OR_RETURN(std::vector<Ciphertext> Outs,
                               Eval.checkedRotateHoisted(A, Steps));
          for (size_t I = 0; I < Outs.size(); ++I)
            Values[GroupIt->second[I]->Id] = std::move(Outs[I]);
          break;
        }
        ACE_ASSIGN_OR_RETURN(Values[N->Id], Eval.checkedRotate(A, Step));
      } else {
        // Power-of-two key set only: decompose the step bit by bit (the
        // extra key switches are the Expert baseline's rotation cost).
        Ciphertext Cur = A;
        for (int64_t Bit = 1; Bit < Slots; Bit <<= 1) {
          if (Step & Bit) {
            ACE_ASSIGN_OR_RETURN(Cur, Eval.checkedRotate(Cur, Bit));
          }
        }
        Values[N->Id] = std::move(Cur);
      }
      break;
    }
    case NodeKind::NK_CkksMul: {
      const Ciphertext &A = Values.at(N->Operands[0]->Id);
      if (N->Operands[1]->Type == TypeKind::TK_Plain) {
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(Ctx, A, "mulPlain"));
        Values[N->Id] = Eval.mulPlain(A, Weight(N->Operands[1], A, true));
      } else {
        const Ciphertext &B = Values.at(N->Operands[1]->Id);
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(Ctx, A, "mul"));
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(Ctx, B, "mul"));
        if (A.numQ() != B.numQ())
          return Status::levelMismatch(
              "executor mul: lhs at " + std::to_string(A.numQ()) +
              " active primes, rhs at " + std::to_string(B.numQ()) +
              " (the compiler should have inserted a modswitch)");
        if (!fhe::scalesClose(A.Scale, B.Scale))
          return Status::scaleMismatch(
              fhe::scaleMismatchMessage("executor mul", A.Scale, B.Scale));
        Values[N->Id] = Eval.mulNoRelin(A, B);
      }
      break;
    }
    case NodeKind::NK_CkksRelin: {
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id],
          Eval.checkedRelinearize(Values.at(N->Operands[0]->Id)));
      break;
    }
    case NodeKind::NK_CkksMulConst: {
      const Ciphertext &A = Values.at(N->Operands[0]->Id);
      ACE_ASSIGN_OR_RETURN(Values[N->Id],
                           Eval.checkedMulScalar(A, N->Scalar, A.Scale));
      break;
    }
    case NodeKind::NK_CkksAddConst: {
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id],
          Eval.checkedAddConst(Values.at(N->Operands[0]->Id), N->Scalar));
      break;
    }
    case NodeKind::NK_CkksAdd:
    case NodeKind::NK_CkksSub: {
      Ciphertext A = Values.at(N->Operands[0]->Id);
      if (N->Operands[1]->Type == TypeKind::TK_Plain) {
        ACE_RETURN_IF_ERROR(fhe::validateCiphertext(Ctx, A, "addPlain"));
        if (N->Kind != NodeKind::NK_CkksAdd)
          return Status::error("plaintext subtraction not emitted");
        Eval.addPlainInPlace(A, Weight(N->Operands[1], A, false));
        Values[N->Id] = std::move(A);
      } else {
        Ciphertext B = Values.at(N->Operands[1]->Id);
        ACE_RETURN_IF_ERROR(Eval.checkedMatchForAdd(A, B));
        if (N->Kind == NodeKind::NK_CkksAdd)
          Eval.addInPlace(A, B);
        else
          Eval.subInPlace(A, B);
        Values[N->Id] = std::move(A);
      }
      break;
    }
    case NodeKind::NK_CkksRescale: {
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id],
          Eval.checkedRescale(Values.at(N->Operands[0]->Id)));
      break;
    }
    case NodeKind::NK_CkksModSwitch: {
      ACE_ASSIGN_OR_RETURN(
          Values[N->Id],
          Eval.checkedModSwitchTo(Values.at(N->Operands[0]->Id),
                                   static_cast<size_t>(N->Ints[0])));
      break;
    }
    case NodeKind::NK_CkksBootstrap: {
      if (!Session->Boot)
        return Status::keyMissing(
            "executor bootstrap: program contains a bootstrap node but "
            "setup() generated no bootstrapping keys");
      ACE_ASSIGN_OR_RETURN(Values[N->Id],
                           Session->Boot->checkedBootstrap(
                               Values.at(N->Operands[0]->Id),
                               static_cast<size_t>(N->BootstrapTarget)));
      break;
    }
    case NodeKind::NK_Return:
      Result = Values.at(N->Operands[0]->Id);
      HaveResult = true;
      break;
    default:
      return Status::error(std::string("executor: unsupported node ") +
                           nodeKindName(N->Kind));
    }
  }
  if (!HaveResult)
    return Status::error("executor: program produced no result");
  if (telemetry::enabled()) {
    telemetry::Telemetry::instance().recordSnapshot("executor:run");
    telemetry::Telemetry::instance().sampleRss("rss");
  }
  return Result;
}

StatusOr<std::vector<double>>
CkksExecutor::decryptLogits(const Ciphertext &Output) {
  if (!Session)
    return Status::invalidArgument("executor: setup() not run");
  telemetry::TraceSpan Span("executor", "decrypt");
  ACE_ASSIGN_OR_RETURN(std::vector<double> Slots,
                       Session->Decrypt.checkedDecryptRealValues(
                           Runtime->encoder(), Output));
  const CipherLayout &L = State.OutputLayout;
  bool ChannelMode = L.C0 > 1;
  std::vector<double> Logits(State.OutputCount);
  for (int64_t K = 0; K < State.OutputCount; ++K) {
    size_t Slot = ChannelMode ? L.slotOf(K, 0, 0) : L.slotOf(0, 0, K);
    if (Slot >= Slots.size())
      return Status::invalidArgument(
          "executor: output layout maps logit " + std::to_string(K) +
          " to slot " + std::to_string(Slot) + " but the ciphertext holds " +
          std::to_string(Slots.size()));
    Logits[K] = Slots[Slot] * State.OutputDataScale;
  }
  return Logits;
}

StatusOr<std::vector<double>> CkksExecutor::infer(const nn::Tensor &Input) {
  ACE_ASSIGN_OR_RETURN(Ciphertext Ct, encryptInput(Input));
  auto Out = run(Ct);
  if (!Out.ok())
    return Out.status();
  return decryptLogits(*Out);
}
