//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// The serve workload: InferenceService with its defaults behind an
// open-loop arrival schedule. One generator thread submits each request at
// its due time, whatever the state of earlier ones; every latency is
// timed from that due time. Most requests use a pool of sessions opened
// and warmed during set-up; a fixed share opens a fresh session on
// arrival and closes it after the response (the key-generation path).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "service/InferenceService.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <thread>

using namespace ace;
using namespace acebench;

namespace {

using Clock = std::chrono::steady_clock;

/// Warm sessions: at least the pool width, so one dispatcher wave (one
/// request per session) can fill every worker.
constexpr size_t kSessions = 4;

/// The steps of one round, in order. Rates are frozen from the capacity
/// measured when the benchmark was written (about 1.7 req/s on the
/// one-thread pool; README.md). The reference step (warm traffic at about
/// 60% of capacity) gives latency_p50_s/latency_tail_s/cpu_per_infer_s;
/// the cold step (every arrival opens a fresh session) gives cold_p50_s;
/// the overload step offers warm traffic at over four times capacity, so
/// the service stays saturated while it drains, and its completion rate
/// is max_rps. Admissions shed once the queue is full would be the
/// service working as designed: they are counted, not failed.
struct StepSpec {
  const char *Name;
  double Rate;      ///< arrivals per second
  double Share;     ///< share of the run budget, over all rounds
  double ColdShare; ///< share of arrivals that open a fresh session
  bool Overload;    ///< arrivals exceed capacity; gives max_rps
};
constexpr StepSpec kSteps[] = {
    {"reference", 1.1, 0.6, 0.0, false},
    {"cold", 1.0, 0.25, 1.0, false},
    {"overload", 8.0, 0.15, 0.0, true},
};
/// A run is kRounds rounds of the steps, each on a freshly set-up service
/// (one setup_s sample per round), and a metric pools the samples of its
/// step over the rounds. So every metric samples the whole run rather
/// than one stretch of it: the host has slow periods lasting seconds.
constexpr int kRounds = 4;
/// The share of an arrival slot its offset is drawn from. Below one minus
/// the reference step's utilization, a request of a quiet service never
/// waits for the one before it, so the latency does not depend on how
/// the seed's offsets happen to bunch.
constexpr double kJitter = 0.25;
/// A step meets the limits when no request fails, the warm tail is under
/// kLatencyLimitS, the generator is never later than kLatenessLimitS,
/// and at most kBacklogLimit requests are outstanding at its end.
constexpr double kLatencyLimitS = 2.5;
constexpr double kLatenessLimitS = 0.05;
constexpr size_t kBacklogLimit = 6;

/// Requests per second from the seconds of full dispatcher waves of
/// \p Wave requests.
double capacity(const std::vector<double> &WaveSeconds, size_t Wave) {
  double T = median(WaveSeconds);
  return T > 0 ? static_cast<double>(Wave) / T : 0.0;
}

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Arrival {
  double Due = 0;
  bool Cold = false;
  size_t Session = 0;
  size_t Input = 0;
};

struct Request {
  Arrival A;
  std::vector<uint8_t> Frame;
  double EncryptS = 0;
  double Late = 0;
  std::optional<service::InferenceService::Ticket> Ticket;
  std::string SubmitError;
  // Filled when it resolves; a cold request's client thread fills only
  // its own Request.
  bool Ok = false;
  std::vector<double> Logits;
  std::string Error;
  double Latency = 0, Queue = 0, Exec = 0, Decrypt = 0, Open = 0;
  /// When the service completed it, seconds from the step's start.
  double Done = 0;
};

struct StepResult {
  const char *Name = "";
  double Rate = 0;
  /// Arrivals over the measured length of the arrival window: the load
  /// the generator actually offered.
  double Offered = 0;
  size_t Warm = 0, Cold = 0, Failed = 0, Shed = 0;
  double P50 = 0;
  /// Overload step: the seconds the service took for each run of
  /// consecutive completions one dispatcher wave long, and the capacity
  /// they give.
  std::vector<double> WaveSeconds;
  double Capacity = 0;
  Tail WarmTail;
  double LateP99 = 0;
  size_t Backlog = 0;
  bool Meets = false;
  std::vector<double> WarmLatency, ColdLatency, Queue, Exec, Decrypt,
      Open, Encrypt, Late;
};

class ServeBench {
public:
  ServeBench(const Workload &W, const Options &O, Result &R)
      : W(W), R(R), Check(O.PrecisionFloorBits), Rand(O.Seed),
        Wave(O.Threads) {}

  /// Constructs the service and opens and warms the session pool.
  /// Returns the seconds it took, or a negative value on failure.
  double setUp() {
    Svc.reset(); // release the previous service's sessions first
    Sessions.clear();
    WallTimer T;
    Svc = std::make_unique<service::InferenceService>(
        W.Compiled->Program, W.Compiled->State);
    for (size_t S = 0; S < kSessions; ++S) {
      BenchSpan Span("openSession", 0);
      R.attempt();
      auto Id = Svc->openSession();
      if (!Id.ok()) {
        R.fail("openSession: " + Id.status().message());
        return -1;
      }
      Sessions.push_back(*Id);
      OpenTimes.push_back(Span.seconds());
    }
    // Warm every session with one request, all in one wave.
    std::vector<Request> Warm(kSessions);
    for (size_t S = 0; S < kSessions; ++S) {
      Warm[S].A.Session = S;
      Warm[S].A.Input = S % W.Inputs.size();
      if (!encrypt(Warm[S]))
        return -1;
      submit(Warm[S]);
    }
    for (Request &Q : Warm)
      resolve(Q, "warm-up");
    for (const Request &Q : Warm)
      if (!Q.Ok)
        return -1;
    return T.seconds();
  }

  StepResult step(const StepSpec &Spec, double Seconds);

  service::InferenceService &service() { return *Svc; }
  const std::vector<double> &openTimes() const { return OpenTimes; }
  const OutputCheck &check() const { return Check; }

private:
  const Workload &W;
  Result &R;
  OutputCheck Check;
  Rng Rand;
  /// Requests per dispatcher wave when the queue is full: the service's
  /// default MaxBatch, one per pool thread.
  size_t Wave;
  std::unique_ptr<service::InferenceService> Svc;
  std::vector<uint64_t> Sessions;
  std::vector<double> OpenTimes;
  uint64_t NextTrace = 1;

  bool encrypt(Request &Q) {
    R.attempt();
    BenchSpan Span("encryptRequest", NextTrace);
    auto Frame = Svc->encryptRequest(Sessions[Q.A.Session],
                                     W.Inputs[Q.A.Input], 0, -1.0,
                                     NextTrace++);
    Q.EncryptS = Span.seconds();
    if (!Frame.ok()) {
      R.fail("encryptRequest: " + Frame.status().message());
      return false;
    }
    Q.Frame = Frame.take();
    return true;
  }

  void submit(Request &Q) {
    auto Ticket = Svc->submit(std::move(Q.Frame));
    if (Ticket.ok())
      Q.Ticket = Ticket.take();
    else
      Q.SubmitError = Ticket.status().message();
  }

  /// Waits for a warm request's response, decrypts and checks it. A
  /// rejected admission is a failure unless \p Shed counts it.
  void resolve(Request &Q, const char *What, size_t *Shed = nullptr) {
    if (!Q.Ticket) {
      if (Shed)
        ++*Shed;
      else
        R.fail(std::string(What) + ": submit: " + Q.SubmitError);
      return;
    }
    service::InferenceResponse Resp = Q.Ticket->Result.get();
    BenchSpan Span("decryptResponse", Resp.TraceId);
    auto Logits = Svc->decryptResponse(Sessions[Q.A.Session], Resp.Bytes);
    Q.Decrypt = Span.seconds();
    if (!Logits.ok()) {
      R.fail(std::string(What) + ": " + Logits.status().message());
      return;
    }
    size_t Before = R.failed();
    Check.check(*Logits, W.Reference[Q.A.Input], R, What);
    Q.Ok = R.failed() == Before;
    Q.Queue = Resp.QueueSeconds;
    Q.Exec = Resp.ExecSeconds;
    Q.Latency = Q.Late + Resp.LatencySeconds + Q.Decrypt;
    Q.Done = Q.A.Due + Q.Late + Resp.LatencySeconds;
  }

  /// A fresh-session request, run on its own client thread from its due
  /// time: openSession, encryptRequest, submit, decryptResponse,
  /// closeSession.
  void coldRequest(Request &Q, Clock::time_point Due) {
    auto Open = Svc->openSession();
    Q.Open = since(Due);
    if (!Open.ok()) {
      Q.Latency = since(Due);
      Q.Error = Open.status().message();
      return;
    }
    auto Frame = Svc->encryptRequest(*Open, W.Inputs[Q.A.Input]);
    auto Ticket = Frame.ok() ? Svc->submit(Frame.take())
                             : StatusOr<service::InferenceService::Ticket>(
                                   Frame.status());
    StatusOr<std::vector<double>> Logits =
        Ticket.ok() ? Status::error("not run") : Ticket.status();
    if (Ticket.ok()) {
      service::InferenceResponse Resp = Ticket->Result.get();
      Logits = Svc->decryptResponse(*Open, Resp.Bytes);
    }
    Q.Latency = since(Due);
    (void)Svc->closeSession(*Open);
    Q.Ok = Logits.ok();
    if (Logits.ok())
      Q.Logits = Logits.take();
    else
      Q.Error = Logits.status().message();
  }
};

StepResult ServeBench::step(const StepSpec &Spec, double Seconds) {
  double Rate = Spec.Rate;
  // The schedule: one arrival per 1/Rate slot at a seed-drawn offset in
  // the first kJitter of the slot (paced, not bursty), each warm (on a
  // seed-picked pooled session) or cold, with a seed-picked input.
  std::vector<Request> Reqs;
  size_t Slots = static_cast<size_t>(std::lround(Seconds * Rate));
  for (size_t I = 0; I < Slots; ++I) {
    Request Q;
    Q.A.Due = (static_cast<double>(I) + kJitter * Rand.uniformReal()) / Rate;
    Q.A.Cold = Rand.uniformReal() < Spec.ColdShare;
    Q.A.Session = static_cast<size_t>(Rand.uniform(kSessions));
    Q.A.Input = static_cast<size_t>(Rand.uniform(W.Inputs.size()));
    Reqs.push_back(std::move(Q));
  }
  // Warm clients hold their ciphertext before their due time.
  for (Request &Q : Reqs)
    if (!Q.A.Cold && !encrypt(Q))
      return {};

  StepResult S;
  S.Name = Spec.Name;
  S.Rate = Rate;
  std::vector<std::thread> ColdClients;
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  auto DueAt = [&](double T) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(T));
  };
  for (Request &Q : Reqs) {
    Clock::time_point Due = DueAt(Q.A.Due);
    std::this_thread::sleep_until(Due);
    R.attempt();
    Q.Late = since(Due);
    if (Q.A.Cold) {
      ColdClients.emplace_back([this, &Q, Due] { coldRequest(Q, Due); });
      continue;
    }
    submit(Q);
  }
  std::this_thread::sleep_until(DueAt(Seconds));
  S.Offered = static_cast<double>(Reqs.size()) / since(Start);
  service::ServiceStats Stats = Svc->stats();
  S.Backlog = Stats.QueueDepth + Stats.InFlight;

  for (std::thread &T : ColdClients)
    T.join();
  for (Request &Q : Reqs) {
    S.Late.push_back(Q.Late);
    if (Q.A.Cold) {
      ++S.Cold;
      if (Q.Ok) {
        size_t Before = R.failed();
        Check.check(Q.Logits, W.Reference[Q.A.Input], R, "cold request");
        Q.Ok = R.failed() == Before;
      } else {
        R.fail("cold request: " + Q.Error);
      }
      S.ColdLatency.push_back(Q.Latency);
      S.Open.push_back(Q.Open);
    } else {
      ++S.Warm;
      resolve(Q, "request", Spec.Overload ? &S.Shed : nullptr);
      if (Spec.Overload && !Q.Ticket)
        continue;
      S.WarmLatency.push_back(Q.Latency);
      S.Queue.push_back(Q.Queue);
      S.Exec.push_back(Q.Exec);
      S.Decrypt.push_back(Q.Decrypt);
      S.Encrypt.push_back(Q.EncryptS);
    }
    if (!Q.Ok)
      ++S.Failed;
  }
  if (Spec.Overload) {
    // Requests complete in dispatcher waves, and the queue does not run
    // dry until the last wave: every span of one wave's worth of
    // consecutive completions is one wave's time. A median over them
    // ignores a stretch the host slowed down.
    std::vector<double> Done;
    for (const Request &Q : Reqs)
      if (Q.Ok)
        Done.push_back(Q.Done);
    std::sort(Done.begin(), Done.end());
    for (size_t K = 0; K + Wave < Done.size(); ++K)
      S.WaveSeconds.push_back(Done[K + Wave] - Done[K]);
    S.Capacity = capacity(S.WaveSeconds, Wave);
  }
  S.P50 = median(S.WarmLatency);
  S.WarmTail = tailOf(S.WarmLatency);
  S.LateP99 = quantile(S.Late, 0.99);
  S.Meets = S.Failed == 0 && S.WarmTail.Value <= kLatencyLimitS &&
            S.LateP99 <= kLatenessLimitS && S.Backlog <= kBacklogLimit;
  return S;
}

std::string stepJson(const StepResult &S) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"step\": \"%s\", \"rate\": %.3f, \"offered\": %.4f, "
                "\"warm\": %zu, "
                "\"cold\": %zu, \"failed\": %zu, \"shed\": %zu, "
                "\"capacity\": %.4f, \"p50_s\": %.6f, "
                "\"tail_s\": %.6f, "
                "\"tail_pct\": %.1f, \"cold_p50_s\": %.6f, "
                "\"late_p99_s\": %.6f, \"backlog\": %zu, \"meets\": %s}",
                S.Name, S.Rate, S.Offered, S.Warm, S.Cold, S.Failed, S.Shed,
                S.Capacity, S.P50,
                S.WarmTail.Value, S.WarmTail.Percentile,
                median(S.ColdLatency), S.LateP99, S.Backlog,
                S.Meets ? "true" : "false");
  return Buf;
}

} // namespace

void acebench::runServe(const Workload &W, const Options &O, Result &R) {
  recordCompiledShape(W, R);
  std::vector<double> Setup;
  if (O.Trace) {
    passLeg(W, R);
    tracedExecutorLeg(W, O, R);
  }
  auto &Tel = telemetry::Telemetry::instance();
  Tel.setEnabled(false);

  ServeBench B(W, O, R);
  std::string Steps = "[";
  auto Record = [&](const StepResult &S) {
    Steps += (Steps.size() > 1 ? ", " : "") + stepJson(S);
  };

  if (O.Trace) {
    // The reference step untraced, then traced: their p50 ratio is the
    // trace overhead; the traced one gives the service-layer split.
    if (B.setUp() < 0)
      return;
    double Seconds = O.Seconds * kSteps[0].Share / 2;
    StepResult Plain = B.step(kSteps[0], Seconds);
    Record(Plain);
    Tel.setEnabled(true);
    StepResult S = B.step(kSteps[0], Seconds);
    Record(S);
    service::ServiceStats Stats = B.service().stats();
    R.metric("svc.queue_p50_s", median(S.Queue), "s");
    R.metric("svc.queue_tail_s", tailOf(S.Queue).Value, "s");
    R.metric("svc.exec_p50_s", median(S.Exec), "s");
    R.metric("svc.exec_tail_s", tailOf(S.Exec).Value, "s");
    std::vector<double> Open = B.openTimes();
    Open.insert(Open.end(), S.Open.begin(), S.Open.end());
    R.metric("svc.open_session_s", median(Open), "s");
    R.metric("svc.encrypt_request_s", median(S.Encrypt), "s");
    R.metric("svc.decrypt_response_s", median(S.Decrypt), "s");
    R.metric("svc.rejected", static_cast<double>(Stats.Rejected), "count");
    R.metric("svc.failed", static_cast<double>(Stats.Failed), "count");
    R.metric("svc.deadline_expired",
             static_cast<double>(Stats.DeadlineExpired), "count");
    R.metric("gen.late_p99_s", S.LateP99, "s");
    R.metric("gen.backlog", static_cast<double>(S.Backlog), "count");
    R.metric("trace.overhead", Plain.P50 > 0 ? S.P50 / Plain.P50 : 0.0,
             "ratio");
    recordGovernor(R);
    R.infoJson("steps", Steps + "]");
    return;
  }

  std::vector<double> Warm, Cold, WaveSeconds;
  double Cpu = 0, Shed = 0;
  size_t Served = 0;
  for (int Round = 0; Round < kRounds; ++Round) {
    double T = B.setUp();
    if (T < 0)
      return;
    Setup.push_back(T);
    for (const StepSpec &Spec : kSteps) {
      double CpuBefore = cpuSeconds();
      StepResult S = B.step(Spec, O.Seconds * Spec.Share / kRounds);
      double StepCpu = cpuSeconds() - CpuBefore;
      Record(S);
      if (Spec.Overload) {
        WaveSeconds.insert(WaveSeconds.end(), S.WaveSeconds.begin(),
                           S.WaveSeconds.end());
        Shed += static_cast<double>(S.Shed);
      } else if (Spec.ColdShare > 0) {
        Cold.insert(Cold.end(), S.ColdLatency.begin(), S.ColdLatency.end());
      } else {
        Warm.insert(Warm.end(), S.WarmLatency.begin(),
                    S.WarmLatency.end());
        Cpu += StepCpu;
        Served += S.Warm + S.Cold;
      }
    }
  }

  Tail WarmTail = tailOf(Warm);
  R.metric("setup_s", median(Setup), "s");
  R.metric("latency_p50_s", median(Warm), "s");
  R.metric("latency_tail_s", WarmTail.Value, "s");
  R.metric("cold_p50_s", median(Cold), "s");
  R.metric("max_rps", capacity(WaveSeconds, O.Threads), "req/s");
  R.metric("cpu_per_infer_s", Served ? Cpu / Served : 0.0, "s");
  R.metric("eval_key_bytes",
           static_cast<double>(B.service().stats().KeyCacheBytes), "B");
  R.metric("peak_rss_bytes", peakRssBytes(), "B");
  R.metric("precision_bits", B.check().minBits(), "bits");
  R.info("top1_agree", B.check().top1Agree());
  R.info("latency_tail_percentile", WarmTail.Percentile);
  R.info("latency_samples", static_cast<double>(WarmTail.Samples));
  R.info("cold_samples", static_cast<double>(Cold.size()));
  R.info("setup_samples", static_cast<double>(Setup.size()));
  R.info("latency_limit_s", kLatencyLimitS);
  R.info("overload_shed", Shed);
  R.info("wave_samples", static_cast<double>(WaveSeconds.size()));
  R.infoJson("steps", Steps + "]");
}
