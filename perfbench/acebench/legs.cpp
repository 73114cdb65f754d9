//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// The legs every workload shares: the compiler leg (compile_s and the
// per-pass split) and the traced executor leg (exact op counts with their
// gate, codegen/region/bootstrap-stage seconds, support-layer counters,
// and the fhe micro-op costs that attribute run and setup time).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "fhe/Bootstrapper.h"
#include "fhe/PolyBackend.h"
#include "passes/Frontend.h"
#include "passes/NnToVector.h"
#include "passes/SiheToCkks.h"
#include "passes/VectorToSihe.h"
#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

using namespace ace;
using namespace acebench;

//===----------------------------------------------------------------------===//
// Compiler leg
//===----------------------------------------------------------------------===//

namespace {

/// Repeats \p Fn until it ran at least \p MinReps times and \p MinSeconds
/// elapsed (capped at \p MaxReps) and returns every repetition's seconds.
std::vector<double> repeatTimed(size_t MinReps, double MinSeconds,
                                size_t MaxReps,
                                const std::function<bool()> &Fn) {
  std::vector<double> Times;
  WallTimer Total;
  while ((Times.size() < MinReps || Total.seconds() < MinSeconds) &&
         Times.size() < MaxReps) {
    WallTimer T;
    if (!Fn())
      break;
    Times.push_back(T.seconds());
  }
  return Times;
}

} // namespace

void acebench::compileLeg(const Workload &W, Result &R, double Seconds) {
  air::CompileOptions Opt;
  std::vector<double> Times = repeatTimed(1, Seconds, 100000, [&] {
    R.attempt();
    driver::AceCompiler Compiler(Opt);
    auto Res = Compiler.compile(W.Model, W.Calibration);
    if (!Res.ok())
      R.fail("compile: " + Res.status().message());
    return Res.ok();
  });
  R.metric("compile_s", quantile(Times, 0.1), "s");
  R.info("compile_samples", static_cast<double>(Times.size()));
}

void acebench::passLeg(const Workload &W, Result &R) {
  air::CompileOptions Opt;
  // The passes' public entry points, timed one by one on the same model
  // and options; the node counts after each must equal compile()'s.
  std::vector<double> Import, ToVector, ToSihe, ToCkks;
  const auto &Phases = W.Compiled->PhaseNodeCounts;
  auto Stage = [&](const char *Name, std::vector<double> &Out,
                   const std::function<Status()> &Fn) {
    BenchSpan Span(Name, 0);
    Status S = Fn();
    Out.push_back(Span.seconds());
    if (S)
      R.fail(std::string(Name) + ": " + S.message());
    return S.ok();
  };
  repeatTimed(5, 0.5, 200, [&] {
    R.attempt();
    air::IrFunction F("main");
    air::CompileState State;
    State.Options = Opt;
    State.Model = &W.Model;
    bool Ok =
        Stage("passes.import", Import,
              [&] {
                return passes::importModel(W.Model, W.Calibration, F, State);
              }) &&
        Stage("passes.nn_to_vector", ToVector,
              [&] { return passes::NnToVectorPass().run(F, State); }) &&
        F.countDialect(air::DialectKind::DK_Vector) == Phases.at("VECTOR") &&
        Stage("passes.vector_to_sihe", ToSihe,
              [&] { return passes::VectorToSihePass().run(F, State); }) &&
        F.countDialect(air::DialectKind::DK_Sihe) == Phases.at("SIHE") &&
        Stage("passes.sihe_to_ckks", ToCkks,
              [&] { return passes::SiheToCkksPass().run(F, State); }) &&
        F.countDialect(air::DialectKind::DK_Ckks) == Phases.at("CKKS");
    if (!Ok)
      R.fail("per-pass run disagrees with AceCompiler::compile");
    return Ok;
  });
  R.metric("passes.import_s", median(Import), "s");
  R.metric("passes.nn_to_vector_s", median(ToVector), "s");
  R.metric("passes.vector_to_sihe_s", median(ToSihe), "s");
  R.metric("passes.sihe_to_ckks_s", median(ToCkks), "s");
}

void acebench::recordCompiledShape(const Workload &W, Result &R) {
  const air::CompileState &S = W.Compiled->State;
  const auto &Phases = W.Compiled->PhaseNodeCounts;
  std::pair<const char *, uint64_t> Counts[] = {
      {"ir.vector_nodes", Phases.at("VECTOR")},
      {"ir.sihe_nodes", Phases.at("SIHE")},
      {"ir.ckks_nodes", Phases.at("CKKS")},
      {"budget.rescale", S.Budget.Rescale},
      {"budget.relin", S.Budget.Relinearize},
      {"budget.rotate", S.Budget.Rotate},
      {"budget.bootstrap", S.Budget.Bootstrap},
  };
  for (const auto &[Name, Value] : Counts) {
    R.metric(Name, static_cast<double>(Value), "count");
    R.count(Name, Value);
  }
  R.info("rescale", rescaleModeName(S.ResolvedRescale));
  R.info("packing", packingStrategyName(S.ResolvedPacking));
  std::string Layers = "[";
  for (const air::PackingDecision &D : S.PackingDecisions)
    Layers += std::string(Layers.size() > 1 ? ", " : "") + "\"" +
              telemetry::jsonEscape(D.Layer) + ":" +
              packingStrategyName(D.Strategy) + "\"";
  R.infoJson("packing_layers", Layers + "]");
  R.info("poly_backend", fhe::activePolyBackendName());
  R.info("threads", static_cast<double>(ThreadPool::instance().numThreads()));
  R.info("ring_degree", static_cast<double>(S.SelectedParams.RingDegree));
  R.info("chain_primes",
         static_cast<double>(S.SelectedParams.NumRescaleModuli + 1));
}

//===----------------------------------------------------------------------===//
// Traced executor leg
//===----------------------------------------------------------------------===//

namespace {

template <typename T, typename Fn> double medianOf(const std::vector<T> &V,
                                                   Fn Get) {
  std::vector<double> X;
  for (const T &E : V)
    X.push_back(Get(E));
  return median(X);
}

/// Median wall seconds of \p Reps calls of \p Fn; \p Prepare runs before
/// each call, outside the timer.
double timeOp(int Reps, const std::function<void()> &Prepare,
              const std::function<void()> &Fn) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    Prepare();
    WallTimer Clock;
    Fn();
    T.push_back(Clock.seconds());
  }
  return median(T);
}

/// fhe.* micro-op costs at the workload's selected parameters, through
/// direct public calls on the executor's context and keys, then the
/// attribution of exec.run_s and setup_s to op cost x executed count.
void microLeg(const Workload &W, const codegen::CkksExecutor &E,
              const Inference &A, double RunSeconds, double SetupSeconds,
              Result &R) {
  auto &Tel = telemetry::Telemetry::instance();
  const air::CompileState &S = W.Compiled->State;
  const fhe::Context &Ctx = E.context();
  fhe::Encoder Enc(Ctx);
  fhe::Evaluator Eval(Ctx, Enc, E.evalKeys());
  fhe::Encryptor Encrypt(Ctx, E.publicKey());
  Rng Rand(0x6d6963726fULL);
  std::vector<double> Values(Ctx.slots());
  for (double &V : Values)
    V = Rand.uniformReal(-0.25, 0.25);
  bool WasEnabled = Tel.isEnabled();
  Tel.setEnabled(false);

  // Rotate at the level the program's first analyzed step is keyed for.
  size_t NumQ = Ctx.chainLength();
  int64_t Step = 0;
  if (!S.RotationSteps.empty()) {
    Step = *S.RotationSteps.begin();
    auto It = S.RotationStepMaxNumQ.find(Step);
    if (It != S.RotationStepMaxNumQ.end())
      NumQ = It->second;
  }
  NumQ = std::max<size_t>(NumQ, 2);
  fhe::Ciphertext Ct = Encrypt.encryptValues(Enc, Values, NumQ);
  fhe::Ciphertext Work;
  double RotateS = 0, RelinS = 0;
  if (Step != 0)
    RotateS = timeOp(31, [] {}, [&] { Work = Eval.rotate(Ct, Step); });
  if (E.evalKeys().HasRelin) {
    fhe::Ciphertext Ct3 = Eval.mulNoRelin(Ct, Ct);
    RelinS = timeOp(31, [] {}, [&] { Work = Eval.relinearize(Ct3); });
  }
  fhe::Ciphertext Prod = Eval.mulPlain(Ct, Eval.encodeForMul(Ct, Values));
  double RescaleS =
      timeOp(31, [&] { Work = Prod; }, [&] { Eval.rescaleInPlace(Work); });

  // Bootstrap at the program's first bootstrap site. One counted
  // bootstrap (which also fills the diagonal caches) gives the ops a
  // bootstrap performs internally, so the rest of the run's ops can be
  // priced separately.
  double BootS = 0;
  telemetry::CounterSnapshot PerBoot;
  const air::IrNode *Site = nullptr;
  for (const auto &N : W.Compiled->Program.nodes())
    if (N->Kind == air::NodeKind::NK_CkksBootstrap) {
      Site = N.get();
      break;
    }
  if (Site) {
    fhe::BootstrapConfig Cfg;
    Cfg.RangeK = S.Options.BootstrapRangeK;
    Cfg.DoubleAngleCount = S.Options.BootstrapDoubleAngle;
    Cfg.ChebyshevDegree = S.Options.BootstrapChebDegree;
    fhe::Bootstrapper Boot(Eval, Cfg);
    size_t InNumQ =
        static_cast<size_t>(std::max(Site->Operands[0]->CkksLevel, 0)) + 1;
    size_t Target = static_cast<size_t>(Site->BootstrapTarget);
    fhe::Ciphertext In = Encrypt.encryptValues(Enc, Values, InNumQ);
    Tel.setEnabled(true);
    telemetry::CounterSnapshot Before = opCounters();
    Work = Boot.bootstrap(In, Target);
    PerBoot = opCounters().deltaSince(Before);
    Tel.setEnabled(false);
    BootS = timeOp(3, [] {}, [&] { Work = Boot.bootstrap(In, Target); });
  }

  fhe::KeyGenerator Gen(Ctx);
  int64_t KeyStep = 1;
  double KeyGenS = timeOp(5, [&] { ++KeyStep; }, [&] {
    fhe::SwitchKey K = Gen.makeRotationKey(KeyStep);
    (void)K;
  });

  const fhe::NttTable &Table = Ctx.nttTable(0);
  std::vector<uint64_t> Poly(Ctx.degree());
  for (uint64_t &C : Poly)
    C = Rand.uniform(Table.modulus());
  constexpr int kNttBatch = 64;
  double NttS = timeOp(9, [] {}, [&] {
                  for (int I = 0; I < kNttBatch; ++I)
                    Table.forward(Poly.data());
                }) /
                kNttBatch;
  Tel.setEnabled(WasEnabled);

  R.metric("fhe.rotate_us", RotateS * 1e6, "us");
  R.metric("fhe.relin_us", RelinS * 1e6, "us");
  R.metric("fhe.rescale_us", RescaleS * 1e6, "us");
  R.metric("fhe.bootstrap_s", BootS, "s");
  R.metric("fhe.rotkey_gen_ms", KeyGenS * 1e3, "ms");
  R.metric("poly.ntt_us", NttS * 1e6, "us");
  R.info("micro_numq", static_cast<double>(NumQ));

  // Ops outside bootstraps priced at their micro cost, bootstraps at
  // theirs; the residual is what the per-op model does not explain
  // (level-dependent costs, ct-pt muls, additions, executor overhead).
  using telemetry::Counter;
  double Boots = static_cast<double>(A.Ops.get(Counter::Bootstrap));
  auto Outside = [&](Counter C) {
    double V = static_cast<double>(A.Ops.get(C)) -
               Boots * static_cast<double>(PerBoot.get(C));
    return std::max(V, 0.0);
  };
  double RunModel = Boots * BootS + Outside(Counter::Rotate) * RotateS +
                    Outside(Counter::Relinearize) * RelinS +
                    Outside(Counter::Rescale) * RescaleS;
  double Keys = static_cast<double>(E.evalKeys().rotationKeyCount()) +
                (E.evalKeys().HasRelin ? 1.0 : 0.0);
  double SetupModel = Keys * KeyGenS;
  R.metric("model.run_predicted_s", RunModel, "s");
  R.metric("model.run_residual_share",
           RunSeconds > 0 ? (RunSeconds - RunModel) / RunSeconds : 0.0,
           "ratio");
  R.metric("model.setup_predicted_s", SetupModel, "s");
  R.metric("model.setup_residual_share",
           SetupSeconds > 0 ? (SetupSeconds - SetupModel) / SetupSeconds
                            : 0.0,
           "ratio");
}

} // namespace

void acebench::recordGovernor(Result &R) {
  GovernorStats G = ResourceGovernor::instance().stats();
  auto Bytes = [&](MemCategory C) {
    return static_cast<double>(G.ChargedBytes[static_cast<size_t>(C)]);
  };
  R.metric("mem.eval_keys_bytes", Bytes(MemCategory::EvalKeys), "B");
  R.metric("mem.limb_pool_bytes", Bytes(MemCategory::LimbPool), "B");
  R.metric("mem.sessions_bytes", Bytes(MemCategory::Sessions), "B");
  R.metric("keycache.hits", static_cast<double>(G.KeyCacheHits), "count");
  R.metric("keycache.misses", static_cast<double>(G.KeyCacheMisses),
           "count");
  R.metric("keycache.evictions", static_cast<double>(G.KeyCacheEvictions),
           "count");
}

void acebench::tracedExecutorLeg(const Workload &W, const Options &O,
                                 Result &R) {
  auto &Tel = telemetry::Telemetry::instance();
  const driver::CompileResult &C = *W.Compiled;
  codegen::CkksExecutor E(C.Program, C.State);
  Tel.setEnabled(true);
  {
    BenchSpan Span("setup", 0);
    R.attempt();
    if (Status S = E.setup()) {
      R.fail("setup: " + S.message());
      return;
    }
  }
  const fhe::EvalKeys &Keys = E.evalKeys();
  R.metric("keys.rotation_keys", static_cast<double>(Keys.rotationKeyCount()),
           "count");
  R.count("keys.rotation_keys", Keys.rotationKeyCount());

  OutputCheck Check(O.PrecisionFloorBits);
  uint64_t Id = 1;
  auto Input = [&](uint64_t I) -> size_t { return I % W.Inputs.size(); };
  std::optional<Inference> Warm =
      infer(E, W.Inputs[0], W.Reference[0], Check, R, Id++, "warm-up");
  if (!Warm)
    return;

  // Untraced, then traced, over the same inputs and count: their median
  // ratio is trace.overhead. Workloads whose inference takes over a
  // second get one inference each; fast ones a quarter of the run budget.
  std::vector<double> Untraced;
  Tel.setEnabled(false);
  WallTimer Budget;
  bool Slow = Warm->total() > 1.0;
  while (Untraced.empty() || (!Slow && Budget.seconds() < O.Seconds / 4 &&
                              Untraced.size() < 2000)) {
    uint64_t K = Untraced.size();
    auto I = infer(E, W.Inputs[Input(K)], W.Reference[Input(K)], Check, R,
                   Id++, "untraced");
    if (!I)
      return;
    Untraced.push_back(I->total());
  }
  Tel.setEnabled(true);
  std::vector<Inference> Traced;
  for (size_t K = 0; K < Untraced.size(); ++K) {
    auto I = infer(E, W.Inputs[Input(K)], W.Reference[Input(K)], Check, R,
                   Id++, "traced");
    if (!I)
      return;
    Traced.push_back(*I);
  }
  double UntracedP50 = median(Untraced);
  double TracedP50 =
      medianOf(Traced, [](const Inference &I) { return I.total(); });

  // The count gate: FHE execution is data-oblivious and bit-identical
  // across thread counts, so every inference performs exactly the same
  // operations - on every input, on a second seed's input, and at
  // another pool width (one thread, or two for a one-thread workload).
  const Inference &A = Traced.front();
  auto Gate = [&](const telemetry::CounterSnapshot &Ops, const char *What) {
    if (opCountList(Ops) != opCountList(A.Ops))
      R.fail(std::string("count gate: op counts differ ") + What);
  };
  for (const Inference &I : Traced)
    Gate(I.Ops, "between repeat inferences");
  const nn::Tensor &B = W.OtherInputs[0];
  const std::vector<double> &BRef = W.OtherReference[0];
  if (auto I = infer(E, B, BRef, Check, R, Id++, "second seed"))
    Gate(I->Ops, "between the two seeds' inputs");
  size_t Width = O.Threads == 1 ? 2 : 1;
  if (Status S = ThreadPool::instance().setNumThreads(Width)) {
    R.fail("setNumThreads: " + S.message());
    return;
  }
  auto Other = infer(E, B, BRef, Check, R, Id++, "other width");
  if (Status S = ThreadPool::instance().setNumThreads(O.Threads))
    R.fail("setNumThreads: " + S.message());
  if (Other) {
    char What[64];
    std::snprintf(What, sizeof(What), "between %zu and %zu threads",
                  O.Threads, Width);
    Gate(Other->Ops, What);
  }

  recordOpCounts(R, A.Ops);
  double RunS = medianOf(Traced, [](const Inference &I) { return I.Run; });
  R.metric("exec.encrypt_s",
           medianOf(Traced, [](const Inference &I) { return I.Encrypt; }),
           "s");
  R.metric("exec.run_s", RunS, "s");
  R.metric("exec.decrypt_s",
           medianOf(Traced, [](const Inference &I) { return I.Decrypt; }),
           "s");
  R.metric("exec.first_run_s", Warm->total(), "s");
  double Named = 0, BootRegion = 0;
  for (const char *Region : {"bootstrap", "conv", "relu", "gemm"}) {
    double T = medianOf(Traced, [&](const Inference &I) {
      auto It = I.Regions.find(Region);
      return It == I.Regions.end() ? 0.0 : It->second;
    });
    Named += T;
    if (Region == std::string("bootstrap"))
      BootRegion = T;
    R.metric(std::string("exec.region.") + Region + "_s", T, "s");
  }
  R.metric("exec.region.rest_s", RunS - Named, "s");
  double C2S =
      medianOf(Traced, [](const Inference &I) { return I.CoeffToSlot; });
  double EM = medianOf(Traced, [](const Inference &I) { return I.EvalMod; });
  double S2C =
      medianOf(Traced, [](const Inference &I) { return I.SlotToCoeff; });
  R.metric("fhe.boot.coeff_to_slot_s", C2S, "s");
  R.metric("fhe.boot.eval_mod_s", EM, "s");
  R.metric("fhe.boot.slot_to_coeff_s", S2C, "s");
  R.metric("fhe.boot.rest_s",
           BootRegion - C2S - EM - S2C, "s");
  R.metric("pool.parallel_for",
           static_cast<double>(A.Ops.get(telemetry::Counter::ParallelFor)),
           "count");
  R.metric("pool.util", medianOf(Traced, [&O](const Inference &I) {
             return I.Run > 0 ? I.RunCpu / (I.Run * O.Threads) : 0.0;
           }), "ratio");
  R.metric("limbpool.misses", static_cast<double>(A.LimbMisses), "count");
  R.metric("trace.overhead", UntracedP50 > 0 ? TracedP50 / UntracedP50 : 0.0,
           "ratio");
  R.metric("precision_bits", Check.minBits(), "bits");
  R.metric("check.top1_agree", Check.top1Agree(), "ratio");
  recordGovernor(R);
  microLeg(W, E, A, RunS, E.setupSeconds(), R);
}
