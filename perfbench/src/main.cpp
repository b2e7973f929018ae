//===- perfbench/src/main.cpp - End-to-end benchmark entry point ----------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --pinned FILE --store-dir DIR [--spans FILE]
/// perfbench --pin FILE
///
/// Draws the workload's (program, dataset) pairs from the seed, sets the
/// workload up several times (the median is setup_s), then runs whole
/// passes over the pairs in a closed loop: one client, programs back to
/// back. The pass count is fixed by --seconds and the workload's nominal
/// pass time, so every run of a seed does identical work. Prints a
/// report line (host record, draw, exact work counters, tail percentile,
/// failures, ledger) and, last, the result line the benchmark contract
/// defines: end-to-end metrics untraced, per-layer metrics traced.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Ledger.h"
#include "Stats.h"

#include "ipbc/TraceReplay.h"
#include "support/Simd.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// Set-up repeats at least MinSetupReps times, and until MinSetupS of
/// set-up time is spent (at most MaxSetupReps times); setup_s is the
/// median repetition, so a set-up of microseconds is still measured
/// over enough repetitions to be steady.
constexpr unsigned MinSetupReps = 3;
constexpr unsigned MaxSetupReps = 1000;
constexpr double MinSetupS = 1.0;
constexpr unsigned MinPasses = 3;
/// No pass starts after this much wall time, whatever the pass count, so
/// a run on a slow host still ends well within its time limit.
constexpr double DeadlineS = 140.0;

/// Nominal wall time of one untraced pass of each workload, oracles
/// included, on a 4-vCPU x86-64 VM. The pass count of a run is --seconds
/// divided by this, so runs of one seed do identical work however fast
/// the host is.
double nominalPassSeconds(const std::string &W) {
  if (W == "paper_tables")
    return 4.5;
  return 2.7;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string PinnedPath;
  std::string StoreDir;
  std::string SpansPath;
  std::string PinOut;
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --pinned FILE --store-dir DIR "
               "[--spans FILE]\n       perfbench --pin FILE\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    const std::string K = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + K;
      return false;
    }
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--pinned")
      A.PinnedPath = V;
    else if (K == "--store-dir")
      A.StoreDir = V;
    else if (K == "--spans")
      A.SpansPath = V;
    else if (K == "--pin")
      A.PinOut = V;
    else {
      Err = "unknown argument " + K;
      return false;
    }
    if (End && *End) {
      Err = "bad number for " + K + ": " + V;
      return false;
    }
  }
  return true;
}

std::string fsTypeName(const std::string &Dir) {
  struct statfs S;
  if (statfs(Dir.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0xEF53: return "ext2/3/4";
  case 0x01021994: return "tmpfs";
  case 0x794C7630: return "overlayfs";
  case 0x58465342: return "xfs";
  case 0x9123683E: return "btrfs";
  case 0x6969: return "nfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(S.f_type));
    return Buf;
  }
  }
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Shortest decimal that reads back as the same double.
std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

std::string quote(const std::string &S) {
  std::string Q = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Q += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Q += ' ';
    else
      Q += C;
  }
  return Q + "\"";
}

/// An ordered JSON object built up field by field.
class Obj {
public:
  Obj &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + quote(K) + ": " + V;
    return *this;
  }
  Obj &str(const std::string &K, const std::string &V) {
    return raw(K, quote(V));
  }
  Obj &n(const std::string &K, double V) { return raw(K, num(V)); }
  Obj &u(const std::string &K, uint64_t V) {
    return raw(K, std::to_string(V));
  }
  Obj &b(const std::string &K, bool V) { return raw(K, V ? "true" : "false"); }
  Obj &metric(const std::string &K, double V, const char *Unit) {
    return raw(K, Obj().n("value", V).str("unit", Unit).text());
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string list(const std::vector<std::string> &Items, bool Quote) {
  std::string S = "[";
  for (size_t I = 0; I < Items.size(); ++I)
    S += (I ? ", " : "") + (Quote ? quote(Items[I]) : Items[I]);
  return S + "]";
}

Obj countersJson(const Counters &C) {
  return Obj()
      .u("instructions", C.Instructions)
      .u("events", C.Events)
      .u("store_bytes", C.StoreBytes)
      .u("static_breaks", C.StaticBreaks)
      .u("dynamic_breaks", C.DynamicBreaks)
      .u("hard_sites", C.HardSites);
}

struct PassRates {
  std::vector<double> Mevents; ///< per pass
  std::vector<double> CpuNsPerEvent;
};

PassRates passRates(const std::vector<PassRecord> &Passes, bool Traced) {
  PassRates R;
  for (const PassRecord &P : Passes) {
    if (P.Traced != Traced || P.WallNs == 0 || P.Work.Events == 0)
      continue;
    const double Ev = static_cast<double>(P.Work.Events);
    R.Mevents.push_back(Ev / (static_cast<double>(P.WallNs) / 1e9) / 1e6);
    R.CpuNsPerEvent.push_back(static_cast<double>(P.CpuNs) / Ev);
  }
  return R;
}

/// The per-layer metrics of the traced passes.
Obj layerMetrics(const Ledger &L, const std::vector<PassRecord> &Passes,
                 double OverheadPct) {
  uint64_t TracedPasses = 0, PassNs = 0;
  for (const PassRecord &P : Passes)
    if (P.Traced) {
      ++TracedPasses;
      PassNs += P.WallNs;
    }
  const double Per = TracedPasses ? 1.0 / static_cast<double>(TracedPasses)
                                  : 0.0;
  const auto Totals = totalsByLayer(L.spans());
  Obj M;
  uint64_t LayerNs = 0;
  for (size_t I = 0; I < NumLayers; ++I) {
    const Layer Ly = static_cast<Layer>(I);
    const LayerTotals &T = Totals[I];
    const std::string N = layerName(Ly);
    LayerNs += T.Ns;
    M.metric(N + ".ms", static_cast<double>(T.Ns) / 1e6 * Per, "ms");
    M.metric(N + ".calls", static_cast<double>(T.Calls) * Per, "count");
    M.metric(N + ".units", static_cast<double>(T.Units) * Per, "count");
    if (layerReportsBandwidth(Ly))
      M.metric(N + ".mb_per_s",
               T.Ns ? static_cast<double>(T.Units) / 1e6 /
                          (static_cast<double>(T.Ns) / 1e9)
                    : 0.0,
               "MB/s");
    else
      M.metric(N + ".ns_per_unit",
               T.Units ? static_cast<double>(T.Ns) /
                             static_cast<double>(T.Units)
                       : 0.0,
               "ns");
    M.metric(N + ".failed", static_cast<double>(T.Failed), "count");
    if (layerIsParallel(Ly))
      M.metric(N + ".cpu_per_wall",
               T.Ns ? static_cast<double>(T.CpuNs) /
                          (static_cast<double>(T.Ns) * Jobs)
                    : 0.0,
               "share");
    if (layerReadsStore(Ly))
      M.metric(N + ".read_amplification",
               T.StoreBytes ? static_cast<double>(T.ReadBytes) /
                                  static_cast<double>(T.StoreBytes)
                            : 0.0,
               "ratio");
  }
  M.metric("other.ms", static_cast<double>(PassNs - LayerNs) / 1e6 * Per,
           "ms");
  M.metric("pass.ms", static_cast<double>(PassNs) / 1e6 * Per, "ms");
  const LayerTotals &Bare = Totals[static_cast<size_t>(Layer::VmInterpBare)];
  const LayerTotals &Cap = Totals[static_cast<size_t>(Layer::VmInterpCapture)];
  uint64_t CapturedEvents = 0;
  for (const PassRecord &P : Passes)
    if (P.Traced && Cap.Calls)
      CapturedEvents += P.Work.Events;
  M.metric("vm.capture.ns_per_event",
           CapturedEvents ? (static_cast<double>(Cap.Ns) -
                             static_cast<double>(Bare.Ns)) /
                                static_cast<double>(CapturedEvents)
                          : 0.0,
           "ns");
  M.metric("trace.overhead_pct", OverheadPct, "%");
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  const uint64_t StartNs = nowNs();
  const uint64_t StartCpu = processCpuNs();
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err))
    return usage(Err.c_str());
  if (!A.PinOut.empty())
    return writePinned(A.PinOut);
  if (!knownWorkload(A.Workload))
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  if (A.PinnedPath.empty() || A.StoreDir.empty())
    return usage("--pinned and --store-dir are required");
  std::filesystem::create_directories(A.StoreDir);

  // Set-up, several times: pinned expectations, draw, and the workload's
  // own preparation. The first repetition also pays process start-up.
  std::vector<double> SetupS;
  std::vector<Pick> Picks;
  std::unique_ptr<Prepared> Work;
  Pinned Pins;
  double SetupTotalS = 0.0;
  for (unsigned Rep = 0; Rep < MinSetupReps ||
                         (SetupTotalS < MinSetupS && Rep < MaxSetupReps);
       ++Rep) {
    Work.reset();
    Pins = Pinned();
    const uint64_t T0 = Rep == 0 ? StartNs : nowNs();
    if (std::string E = Pins.load(A.PinnedPath); !E.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", E.c_str());
      return 1;
    }
    Picks = drawWorkload(A.Workload, A.Seed, Pins);
    if (Picks.empty()) {
      std::fprintf(stderr, "perfbench: empty draw for '%s'\n",
                   A.Workload.c_str());
      return 1;
    }
    Work = setupWorkload(A.Workload, Picks, {A.StoreDir}, Err);
    if (!Work) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      return 1;
    }
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    SetupTotalS += SetupS.back();
  }
  const double SetupCpuS = static_cast<double>(processCpuNs() - StartCpu) / 1e9;

  const unsigned Passes = std::max(
      static_cast<unsigned>(
          std::lround(A.Seconds / nominalPassSeconds(A.Workload))),
      A.Trace ? 2 * MinPasses : MinPasses);

  // The closed loop. A traced run alternates traced and untraced passes
  // so both rates come from one process, interleaved.
  Ledger Led;
  Harness H(Led);
  const uint64_t LoopStart = nowNs();
  for (unsigned P = 0; P < Passes; ++P) {
    if (static_cast<double>(nowNs() - StartNs) / 1e9 > DeadlineS)
      break;
    H.beginPass(A.Trace && P % 2 == 0);
    Work->runPass(H);
    H.endPass();
  }
  const double LoopS = static_cast<double>(nowNs() - LoopStart) / 1e9;

  // Exact work must repeat pass after pass.
  const std::vector<PassRecord> &Recs = H.passes();
  bool CountersRepeat = !Recs.empty();
  for (const PassRecord &P : Recs)
    CountersRepeat &= P.Work == Recs.front().Work;
  const Counters Work0 = Recs.empty() ? Counters() : Recs.front().Work;

  const PassRates Untraced = passRates(Recs, false);
  const PassRates Traced = passRates(Recs, true);
  std::vector<double> Samples;
  for (const Harness::Sample &S : H.samples())
    if (!S.Traced)
      Samples.push_back(S.NsPerEvent);
  const TailPoint Tail = tailPoint(Samples);
  // Per-program medians show which programs make the tail.
  Obj PerProgram;
  for (size_t I = 0; I < Picks.size(); ++I) {
    std::vector<double> V;
    for (const Harness::Sample &S : H.samples())
      if (!S.Traced && S.Program == I)
        V.push_back(S.NsPerEvent);
    PerProgram.n(Picks[I].label(), median(V));
  }
  const double FailedShare =
      H.attempted() ? static_cast<double>(H.failed()) /
                          static_cast<double>(H.attempted())
                    : 1.0;
  const std::string LedgerErr = A.Trace ? Led.checkConservation() : "";
  double OverheadPct = 0.0;
  if (A.Trace && !Traced.Mevents.empty() && !Untraced.Mevents.empty())
    OverheadPct =
        (median(Untraced.Mevents) / median(Traced.Mevents) - 1.0) * 100.0;
  // An untraced run must produce its tail metric; a traced run must
  // conserve its ledger.
  const bool Correct = H.failed() == 0 && CountersRepeat &&
                       (A.Trace ? LedgerErr.empty() : Tail.Valid);

  std::vector<std::string> Draw;
  for (const Pick &P : Picks)
    Draw.push_back(P.label());
  const Obj Host =
      Obj()
          .u("nproc", std::thread::hardware_concurrency())
          .u("jobs", Jobs)
          .str("replay_simd_path", bpfree::simd::pathName(
                                       bpfree::replaySimdPath()))
          .b("threaded_dispatch", bpfree::threadedDispatchAvailable())
          .str("build_type", PERFBENCH_BUILD_TYPE)
          .str("compiler", __VERSION__)
          .str("store_fs", fsTypeName(A.StoreDir))
          .u("seed", A.Seed);
  Obj Report;
  Report.str("workload", A.Workload)
      .raw("host", Host.text())
      .raw("draw", list(Draw, true))
      .str("prepared", Work->describe())
      .n("time_to_first_pass_s", static_cast<double>(LoopStart - StartNs) / 1e9)
      .n("setup_first_s", SetupS.front())
      .u("setup_reps", SetupS.size())
      .n("setup_cpu_s", SetupCpuS)
      .u("passes", Recs.size())
      .u("traced_passes", Traced.Mevents.size())
      .n("loop_s", LoopS)
      .raw("pass_mevents_per_s", [&] {
        std::vector<std::string> V;
        for (double M : Untraced.Mevents)
          V.push_back(num(M));
        return list(V, false);
      }())
      .raw("counters_per_pass", countersJson(Work0).text())
      .str("counters_digest", [&] {
        char B[20];
        std::snprintf(B, sizeof(B), "%016llx",
                      static_cast<unsigned long long>(Work0.digest()));
        return std::string(B);
      }())
      .b("counters_repeat", CountersRepeat)
      .raw("tail", Obj()
                       .u("percentile", Tail.Percentile)
                       .u("samples", Tail.Samples)
                       .u("beyond", Tail.Beyond)
                       .text())
      .raw("program_ns_per_event_p50", PerProgram.text())
      .n("failed_share", FailedShare)
      .raw("failures", list(H.failures(), true));
  if (A.Trace) {
    Obj Units;
    for (size_t I = 0; I < NumLayers; ++I)
      Units.str(layerName(static_cast<Layer>(I)),
                layerUnit(static_cast<Layer>(I)));
    Report.raw("layer_units", Units.text());
  }
  if (A.Trace)
    Report.b("ledger_conserves", LedgerErr.empty())
        .str("ledger_error", LedgerErr)
        .n("traced_mevents_per_s", median(Traced.Mevents))
        .n("untraced_mevents_per_s", median(Untraced.Mevents))
        .n("trace_overhead_pct", OverheadPct);
  std::printf("%s\n", Obj().raw("perfbench_report", Report.text()).text().c_str());

  Obj Metrics;
  if (A.Trace) {
    Metrics = layerMetrics(Led, Recs, OverheadPct);
    if (!A.SpansPath.empty() && !Led.writeTrace(A.SpansPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   A.SpansPath.c_str());
  } else {
    Metrics.metric("setup_s", median(SetupS), "s")
        .metric("mevents_per_s", median(Untraced.Mevents), "Mevents/s")
        .metric("ns_per_event_p50", median(Samples), "ns")
        .metric("ns_per_event_tail", Tail.Value, "ns")
        .metric("cpu_ns_per_event", median(Untraced.CpuNsPerEvent), "ns")
        .metric("peak_rss_mb", peakRssMb(), "MB")
        .metric("ok_share", 1.0 - FailedShare, "share");
  }
  std::printf("%s\n", Obj()
                          .b("correct", Correct)
                          .u("attempted", H.attempted())
                          .u("failed", H.failed())
                          .raw("metrics", Metrics.text())
                          .text()
                          .c_str());
  std::fflush(stdout);
  Work.reset();
  std::error_code EC;
  std::filesystem::remove_all(A.StoreDir, EC);
  return 0;
}
