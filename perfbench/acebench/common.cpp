//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "nn/ModelZoo.h"
#include "support/LimbPool.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <sys/resource.h>

using namespace ace;
using namespace acebench;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

namespace {

nn::Tensor uniformTensor(const std::vector<int64_t> &Shape, Rng &R) {
  nn::Tensor T;
  T.Shape = Shape;
  T.Values.resize(static_cast<size_t>(T.elementCount()));
  for (auto &V : T.Values)
    V = static_cast<float>(R.uniformReal(-1.0, 1.0));
  return T;
}

/// A fresh image around one of the dataset's class prototypes, drawn the
/// way makeSyntheticDataset draws its samples (same noise, same clamp),
/// so seed-picked inputs come from the distribution the model was
/// calibrated on.
nn::Tensor prototypeImage(const nn::Dataset &Data, Rng &R) {
  size_t K = static_cast<size_t>(R.uniform(Data.Prototypes.size()));
  nn::Tensor X = Data.Prototypes[K];
  for (auto &V : X.Values) {
    V += static_cast<float>(R.gaussian() * 0.12);
    V = std::fmax(-1.0f, std::fmin(1.0f, V));
  }
  return X;
}

/// Distinct seed streams for the measured inputs and the count gate's
/// second input set.
constexpr uint64_t kOtherInputsSalt = 0x9e3779b97f4a7c15ull;

} // namespace

size_t acebench::poolThreads(const std::string &Workload) {
  return Workload == "serve" ? 1 : 2;
}

StatusOr<Workload> acebench::makeWorkload(const std::string &Name,
                                          uint64_t Seed) {
  Workload W;
  Rng R(Seed), Other(Seed ^ kOtherInputsSalt);
  if (Name == "resnet20") {
    nn::NanoResNetSpec Spec = nn::paperModelSpecs()[0];
    std::vector<int64_t> Shape = {1, Spec.InputChannels, Spec.InputHW,
                                  Spec.InputHW};
    // The model is the encrypted_resnet example's, fit on the first 16
    // images of a fixed synthetic dataset; activation bounds are
    // calibrated on 128 images of that dataset. Only the measured images
    // come from the run seed: unseen draws around the same prototypes.
    nn::Dataset Data = nn::makeSyntheticDataset(
        Shape, static_cast<int>(Spec.Classes), 128, 0.12, 3);
    W.Calibration = Data.Images;
    Data.Images.resize(16);
    Data.Labels.resize(16);
    auto ModelOr = nn::buildNanoResNet(Spec, Data, 9);
    if (!ModelOr.ok())
      return ModelOr.status();
    W.Model = ModelOr.take();
    for (int I = 0; I < 4; ++I)
      W.Inputs.push_back(prototypeImage(Data, R));
    W.OtherInputs.push_back(prototypeImage(Data, Other));
  } else if (Name == "linear" || Name == "serve") {
    // The paper's Fig. 4 linear model and the op-budget contract's MLP.
    std::vector<int64_t> Shape;
    if (Name == "linear") {
      W.Model = nn::buildLinearInfer(42);
      Shape = {1, 84};
    } else {
      W.Model = nn::buildMlp({64, 48, 32, 10}, 7);
      Shape = {1, 64};
    }
    // Activation bounds are calibrated on a fixed sample of the same
    // distribution the measured inputs come from, large enough that
    // those inputs stay inside the calibrated ranges (the frontend adds
    // 25% headroom on top).
    Rng Calib(7);
    for (int I = 0; I < 64; ++I)
      W.Calibration.push_back(uniformTensor(Shape, Calib));
    for (int I = 0; I < 64; ++I)
      W.Inputs.push_back(uniformTensor(Shape, R));
    W.OtherInputs.push_back(uniformTensor(Shape, Other));
  } else {
    return Status::invalidArgument("unknown workload '" + Name + "'");
  }
  for (auto [Xs, Refs] : {std::pair{&W.Inputs, &W.Reference},
                           std::pair{&W.OtherInputs, &W.OtherReference}})
    for (const nn::Tensor &X : *Xs) {
      auto Clear = nn::executeSingle(W.Model.MainGraph, X);
      if (!Clear.ok())
        return Clear.status();
      Refs->emplace_back(Clear->Values.begin(), Clear->Values.end());
    }
  driver::AceCompiler Compiler{air::CompileOptions()};
  auto Compiled = Compiler.compile(W.Model, W.Calibration);
  if (!Compiled.ok())
    return Compiled.status();
  W.Compiled = Compiled.take();
  return W;
}

//===----------------------------------------------------------------------===//
// Result record
//===----------------------------------------------------------------------===//

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  return "\"" + telemetry::jsonEscape(S) + "\"";
}

} // namespace

void Result::metric(const std::string &Name, double Value, const char *Unit) {
  for (auto &[N, VU] : Metrics)
    if (N == Name) {
      VU = {Value, Unit};
      return;
    }
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::count(const std::string &Name, uint64_t Value) {
  Counts.push_back({Name, Value});
}

void Result::info(const std::string &Key, const std::string &Value) {
  Info.push_back({Key, jsonString(Value)});
}

void Result::info(const std::string &Key, double Value) {
  Info.push_back({Key, jsonNumber(Value)});
}

void Result::infoJson(const std::string &Key, const std::string &Json) {
  Info.push_back({Key, Json});
}

void Result::fail(const std::string &Why) {
  ++Failed;
  // Keep the record bounded when a defect fails every operation.
  if (Errors.size() < 32)
    Errors.push_back(Why);
}

std::string Result::json() const {
  std::ostringstream OS;
  OS << "{\"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    OS << (I ? ", " : "") << jsonString(Metrics[I].first)
       << ": {\"value\": " << jsonNumber(Metrics[I].second.first)
       << ", \"unit\": " << jsonString(Metrics[I].second.second) << "}";
  OS << "}, \"counts\": {";
  for (size_t I = 0; I < Counts.size(); ++I)
    OS << (I ? ", " : "") << jsonString(Counts[I].first) << ": "
       << Counts[I].second;
  OS << "}, \"info\": {";
  for (size_t I = 0; I < Info.size(); ++I)
    OS << (I ? ", " : "") << jsonString(Info[I].first) << ": "
       << Info[I].second;
  OS << "}, \"errors\": [";
  for (size_t I = 0; I < Errors.size(); ++I)
    OS << (I ? ", " : "") << jsonString(Errors[I]);
  OS << "]}";
  return OS.str();
}

void OutputCheck::check(const std::vector<double> &Logits,
                        const std::vector<double> &Reference, Result &R,
                        const std::string &What) {
  ++Checked;
  if (Logits.size() != Reference.size()) {
    MinBits = 0.0;
    R.fail(What + ": " + std::to_string(Logits.size()) + " logits, expected " +
           std::to_string(Reference.size()));
    return;
  }
  double MaxErr = 0.0;
  for (size_t I = 0; I < Logits.size(); ++I)
    MaxErr = std::max(MaxErr, std::fabs(Logits[I] - Reference[I]));
  double Bits = MaxErr > 0.0 ? -std::log2(MaxErr) : 64.0;
  MinBits = std::min(MinBits, Bits);
  auto ArgMax = [](const std::vector<double> &V) {
    return static_cast<size_t>(std::max_element(V.begin(), V.end()) -
                               V.begin());
  };
  if (ArgMax(Logits) == ArgMax(Reference))
    ++Agree;
  if (!(Bits >= FloorBits)) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  ": %.2f bits of agreement with the cleartext executor, "
                  "floor %.2f",
                  Bits, FloorBits);
    R.fail(What + Buf);
  }
}

//===----------------------------------------------------------------------===//
// Statistics, CPU and memory
//===----------------------------------------------------------------------===//

double acebench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double acebench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

Tail acebench::tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  if (V.size() < 20) {
    T.Value = V.back();
    return T;
  }
  double Q = std::min(0.75, 1.0 - 10.0 / static_cast<double>(V.size()));
  T.Value = quantile(V, Q);
  T.Percentile = 100.0 * Q;
  return T;
}

double acebench::cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + 1e-6 * T.tv_usec;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double acebench::peakRssBytes() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) * 1024.0; // Linux: KiB
}

//===----------------------------------------------------------------------===//
// One inference
//===----------------------------------------------------------------------===//

namespace {

double phase(const char *Name) {
  return telemetry::Telemetry::instance().phaseSeconds(Name);
}

} // namespace

std::optional<Inference> acebench::infer(codegen::CkksExecutor &E,
                               const nn::Tensor &X,
                               const std::vector<double> &Reference,
                               OutputCheck &Check, Result &R, uint64_t Id,
                               const char *What) {
  Inference I;
  telemetry::CounterSnapshot Before = opCounters();
  uint64_t LimbBefore = LimbPool::instance().stats().Misses;
  double C2S = phase("CoeffToSlot"), EM = phase("EvalMod"),
         S2C = phase("SlotToCoeff");
  R.attempt();
  BenchSpan Whole("inference", Id);
  StatusOr<fhe::Ciphertext> In = Status::error("not run");
  {
    BenchSpan Span("encryptInput", Id);
    In = E.encryptInput(X);
    I.Encrypt = Span.seconds();
  }
  StatusOr<fhe::Ciphertext> Out = Status::error("not run");
  if (In.ok()) {
    double Cpu = cpuSeconds();
    BenchSpan Span("run", Id);
    Out = E.run(*In);
    I.Run = Span.seconds();
    I.RunCpu = cpuSeconds() - Cpu;
  }
  StatusOr<std::vector<double>> Logits = Status::error("not run");
  if (Out.ok()) {
    BenchSpan Span("decryptLogits", Id);
    Logits = E.decryptLogits(*Out);
    I.Decrypt = Span.seconds();
  }
  if (!Logits.ok()) {
    R.fail(std::string(What) + ": " +
           (!In.ok() ? In.status() : !Out.ok() ? Out.status()
                                               : Logits.status())
               .message());
    return std::nullopt;
  }
  Check.check(*Logits, Reference, R, What);
  I.Ops = opCounters().deltaSince(Before);
  I.LimbMisses = LimbPool::instance().stats().Misses - LimbBefore;
  I.CoeffToSlot = phase("CoeffToSlot") - C2S;
  I.EvalMod = phase("EvalMod") - EM;
  I.SlotToCoeff = phase("SlotToCoeff") - S2C;
  for (const auto &[Region, T] : E.regionTimes().entries())
    I.Regions[Region] = T;
  return I;
}


//===----------------------------------------------------------------------===//
// Spans and op counters
//===----------------------------------------------------------------------===//

BenchSpan::BenchSpan(const char *Name, uint64_t Id)
    : Name(Name), Id(Id),
      StartUs(telemetry::Telemetry::instance().nowUs()) {}

BenchSpan::~BenchSpan() {
  if (!telemetry::enabled())
    return;
  telemetry::TraceEvent E;
  E.Name = Name;
  E.Category = "bench";
  E.Phase = 'X';
  E.TsUs = StartUs;
  E.DurUs = Clock.seconds() * 1e6;
  E.Id = Id;
  telemetry::Telemetry::instance().addEvent(std::move(E));
}

double BenchSpan::seconds() const { return Clock.seconds(); }

telemetry::CounterSnapshot acebench::opCounters() {
  return telemetry::Telemetry::instance().counters();
}

std::vector<std::pair<std::string, uint64_t>>
acebench::opCountList(const telemetry::CounterSnapshot &D) {
  using telemetry::Counter;
  return {
      {"fhe.keyswitch", D.get(Counter::KeySwitch)},
      {"fhe.keyswitch_digit", D.get(Counter::KeySwitchDigit)},
      {"fhe.modup", D.get(Counter::ModUp)},
      {"fhe.hoisted_keyswitch", D.get(Counter::HoistedKeySwitch)},
      {"fhe.rotate", D.get(Counter::Rotate)},
      {"fhe.relin", D.get(Counter::Relinearize)},
      {"fhe.rescale", D.get(Counter::Rescale)},
      {"fhe.ctct_mul", D.get(Counter::CtCtMul)},
      {"fhe.ctpt_mul", D.get(Counter::CtPtMul)},
      {"fhe.bootstrap", D.get(Counter::Bootstrap)},
      {"fhe.ntt",
       D.get(Counter::NttForward) + D.get(Counter::NttInverse)},
  };
}

void acebench::recordOpCounts(Result &R,
                              const telemetry::CounterSnapshot &Delta) {
  for (const auto &[Name, Value] : opCountList(Delta)) {
    R.metric(Name, static_cast<double>(Value), "count");
    R.count(Name, Value);
  }
}

void acebench::zeroServiceMetrics(Result &R) {
  for (const char *Name :
       {"svc.queue_p50_s", "svc.queue_tail_s", "svc.exec_p50_s",
        "svc.exec_tail_s", "svc.open_session_s", "svc.encrypt_request_s",
        "svc.decrypt_response_s", "gen.late_p99_s"})
    R.metric(Name, 0.0, "s");
  for (const char *Name :
       {"svc.rejected", "svc.failed", "svc.deadline_expired", "gen.backlog"})
    R.metric(Name, 0.0, "count");
}
