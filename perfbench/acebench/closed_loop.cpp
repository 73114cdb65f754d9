//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// The closed-loop workloads (linear, and resnet20 as a defect
// reproducer): one client encrypts, runs and decrypts one input after
// another through CkksExecutor.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

using namespace ace;
using namespace acebench;

void acebench::runClosedLoop(const Workload &W, const Options &O, Result &R) {
  recordCompiledShape(W, R);
  if (O.Trace) {
    passLeg(W, R);
    tracedExecutorLeg(W, O, R);
    zeroServiceMetrics(R);
    return;
  }

  // Set-up is repeated and reported as a median; the first inference on
  // a fresh executor is the cold one. A cheap workload (set-up plus cold
  // inference under half a second) sets up again before each of the
  // loop's six segments, for at least 0.4 s each time, so its set-up and
  // cold samples spread over the run like the loop's. An expensive one
  // sets up three times before the loop and runs a cold inference after
  // the first and the last, whose executor the loop then uses warm.
  const driver::CompileResult &C = *W.Compiled;
  std::vector<double> Setup, Cold, Latency, Rates;
  std::unique_ptr<codegen::CkksExecutor> E;
  OutputCheck Check(O.PrecisionFloorBits);
  size_t K = 0;
  auto Run = [&](const char *What) -> std::optional<Inference> {
    size_t I = K++ % W.Inputs.size();
    return infer(*E, W.Inputs[I], W.Reference[I], Check, R, K, What);
  };
  auto SetUp = [&] {
    E.reset(); // free the previous key set before generating the next
    E = std::make_unique<codegen::CkksExecutor>(C.Program, C.State);
    R.attempt();
    WallTimer Clock;
    if (Status S = E->setup()) {
      R.fail("setup: " + S.message());
      return false;
    }
    Setup.push_back(Clock.seconds());
    return true;
  };
  auto ColdRun = [&] {
    auto I = Run("cold inference");
    if (I)
      Cold.push_back(I->total());
    return I.has_value();
  };

  if (!SetUp() || !ColdRun())
    return;
  bool Cheap = Setup[0] + Cold[0] < 0.5;
  if (!Cheap && !(SetUp() && SetUp() && ColdRun()))
    return;

  constexpr int kSegments = 6;
  double Cpu = 0;
  for (int Seg = 0; Seg < kSegments; ++Seg) {
    for (WallTimer Phase; Cheap && Phase.seconds() < 0.4;)
      if (!SetUp() || !ColdRun())
        return;
    double CpuBefore = cpuSeconds();
    size_t Before = Latency.size();
    WallTimer Loop;
    while (Loop.seconds() < O.Seconds / kSegments ||
           (Seg + 1 == kSegments && Latency.size() < 2)) {
      auto I = Run("inference");
      if (!I)
        return;
      Latency.push_back(I->total());
    }
    Cpu += cpuSeconds() - CpuBefore;
    Rates.push_back(static_cast<double>(Latency.size() - Before) /
                    Loop.seconds());
  }

  Tail T = tailOf(Latency);
  R.metric("setup_s", median(Setup), "s");
  R.metric("latency_p50_s", median(Latency), "s");
  R.metric("latency_tail_s", T.Value, "s");
  R.metric("cold_p50_s", median(Cold), "s");
  // Throughput per segment, then the median: one segment the host slowed
  // down does not decide it.
  R.metric("max_rps", median(Rates), "req/s");
  R.metric("cpu_per_infer_s", Cpu / static_cast<double>(Latency.size()),
           "s");
  R.metric("eval_key_bytes",
           static_cast<double>(E->memory().evaluationKeyBytes()), "B");
  R.metric("peak_rss_bytes", peakRssBytes(), "B");
  R.metric("precision_bits", Check.minBits(), "bits");
  R.info("top1_agree", Check.top1Agree());
  R.info("latency_tail_percentile", T.Percentile);
  R.info("latency_samples", static_cast<double>(T.Samples));
  R.info("cold_samples", static_cast<double>(Cold.size()));
  R.info("setup_samples", static_cast<double>(Setup.size()));
}
