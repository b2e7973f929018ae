//===- perfbench/src/selftest.cpp - The benchmark's own tests -------------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_selftest --pinned FILE --store-dir DIR
///
/// Checks the benchmark's own machinery: the tail-percentile rule, seed
/// determinism of the draw and of the exact work counters, and that every
/// oracle accepts the library's real output and rejects a deliberately
/// altered copy of it. Exits 0 when every check passes.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracles.h"
#include "Stats.h"

#include "frontend/Compiler.h"
#include "ipbc/DynamicReplay.h"
#include "ipbc/TraceReplay.h"
#include "predict/Evaluation.h"
#include "predict/PredictionContext.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

using namespace bpfree;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What.c_str());
  Failures += !Ok;
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I < N; ++I)
    V.push_back(static_cast<double>(N - I)); // unsorted on purpose
  return V;
}

void testTailPercentile() {
  check(!tailPoint(iota(10)).Valid, "tail: 10 samples have no tail");
  check(!tailPoint(iota(19)).Valid,
        "tail: 19 samples cannot put ten beyond the median");
  TailPoint T = tailPoint(iota(20));
  check(T.Valid && T.Percentile == 50 && T.Beyond == 10 && T.Value == 10,
        "tail: 20 samples give p50 with ten beyond");
  T = tailPoint(iota(100));
  check(T.Percentile == 90 && T.Beyond == 10 && T.Value == 90,
        "tail: 100 samples give p90");
  T = tailPoint(iota(125));
  check(T.Percentile == 92 && T.Beyond == 10 && T.Value == 115,
        "tail: 125 samples give p92");
  T = tailPoint(iota(48));
  check(T.Percentile == 79 && T.Samples == 48 && T.Value == 38,
        "tail: 48 samples give p79 and record the sample count");
  T = tailPoint(iota(5000));
  check(T.Percentile == 99 && T.Beyond == 50, "tail: percentile caps at 99");
  // The rule itself, over a range of sizes: at least ten samples lie
  // above the reported one, and one percentile higher would leave fewer.
  bool RuleHolds = true;
  for (size_t N = 20; N <= 1200; N += 7) {
    T = tailPoint(iota(N));
    size_t Above = 0;
    for (double V : iota(N))
      Above += V > T.Value;
    const bool Highest = T.Percentile == 99 ||
                         N * (100 - (T.Percentile + 1)) / 100 < MinBeyond;
    RuleHolds &= T.Valid && Above == T.Beyond && Above >= MinBeyond && Highest;
  }
  check(RuleHolds, "tail: highest percentile with at least ten beyond");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
        "median of odd and even sample counts");
}

std::vector<std::string> labels(const std::vector<Pick> &Picks) {
  std::vector<std::string> L;
  for (const Pick &P : Picks)
    L.push_back(P.label());
  return L;
}

Counters onePass(const std::string &Workload, uint64_t Seed,
                 const Pinned &Pins, const std::string &StoreDir) {
  std::string Err;
  std::unique_ptr<Prepared> W = setupWorkload(
      Workload, drawWorkload(Workload, Seed, Pins), {StoreDir}, Err);
  if (!W) {
    check(false, "set-up of " + Workload + ": " + Err);
    return {};
  }
  Ledger L;
  Harness H(L);
  H.beginPass(false);
  W->runPass(H);
  H.endPass();
  check(H.failed() == 0, Workload + " pass has no failures");
  return H.passes().front().Work;
}

void testSeedDeterminism(const Pinned &Pins, const std::string &StoreDir) {
  for (const std::string &W : workloadNames()) {
    const std::vector<std::string> A = labels(drawWorkload(W, 7, Pins));
    check(!A.empty() && A == labels(drawWorkload(W, 7, Pins)),
          W + ": same seed, same draw");
    check(A != labels(drawWorkload(W, 8, Pins)),
          W + ": different seed, different draw");
  }
  // Only size-class datasets are drawn.
  bool InClass = true;
  for (uint64_t Seed = 0; Seed < 50; ++Seed)
    for (const Pick &P : drawWorkload("paper_tables", Seed, Pins)) {
      const std::vector<size_t> C = sizeClass(Pins, *P.W);
      InClass &= std::find(C.begin(), C.end(), P.Dataset) != C.end();
    }
  check(InClass, "draws stay in each program's size class");
  const Counters A = onePass("trace_replay", 3, Pins, StoreDir);
  const Counters B = onePass("trace_replay", 3, Pins, StoreDir);
  check(A.Events > 0 && A == B && A.digest() == B.digest(),
        "trace_replay: same seed, same work counters");
}

std::unique_ptr<ir::Module> compileNamed(const char *Name) {
  return minic::compile(findWorkload(Name)->Source).takeValue();
}

void testOracles() {
  // A real capture of a small hard-to-predict run.
  const Workload &W = *findWorkload("hashbits");
  std::unique_ptr<ir::Module> M = compileNamed("hashbits");
  PredictionContext Ctx(*M);
  BranchTrace Trace(*M);
  EdgeProfile Profile(*M);
  RunResult R = Interpreter(*M).run(W.Datasets[1], {&Profile, &Trace});
  Trace.finalize(R.InstrCount);
  check(R.ok() && Trace.numEvents() > 0, "oracle fixture: capture runs");

  // Profile totals against the library's tables.
  const ProfileTotals PT = profileTotals(*M, Profile);
  const std::vector<BranchStats> Stats = collectBranchStats(Ctx, Profile);
  const LoopNonLoopBreakdown Table2 = computeLoopNonLoopBreakdown(Stats);
  const CombinedResult Table6 = computeCombined(Stats);
  check(PT.Events == Trace.numEvents() &&
            checkTables(PT, Table2, Table6).empty(),
        "profile oracle matches the paper tables");
  CombinedResult BadTable = Table6;
  ++BadTable.AllPerfectMiss.Num;
  check(!checkTables(PT, Table2, BadTable).empty(),
        "profile oracle rejects an altered perfect-miss total");
  BadTable = Table6;
  --BadTable.AllMiss.Den;
  check(!checkTables(PT, Table2, BadTable).empty(),
        "profile oracle rejects a table that drops an event");

  // Histograms: the naive recount against the fused kernel.
  std::vector<std::vector<uint8_t>> Dirs = {
      predictorDirections(*M, BallLarusPredictor(Ctx))};
  const std::vector<uint8_t> Combined = Dirs[0];
  Expected<std::vector<SequenceHistogram>> Fused =
      replayTraceAll(Trace, std::move(Dirs), Jobs);
  const SequenceHistogram Naive = recountStaticLane(Trace, Combined);
  check(Fused && compareHistograms(Naive, (*Fused)[0]).empty(),
        "recount oracle matches the fused kernel");
  SequenceHistogram Bad = (*Fused)[0];
  ++Bad.Breaks;
  check(!compareHistograms(Naive, Bad).empty(),
        "histogram oracle rejects an altered break count");
  Bad = (*Fused)[0];
  ++Bad.NumSequences[3];
  --Bad.NumSequences[4];
  check(!compareHistograms(Naive, Bad).empty(),
        "histogram oracle rejects a moved sequence");

  // The 2-bit per-site oracle against the zoo's alias-free bimodal.
  Expected<std::vector<SequenceHistogram>> Zoo =
      replayTraceDynamic(Trace, {standardDynamicPanel()[0]}, Jobs);
  const SequenceHistogram TwoBit = twoBitPerSite(Trace);
  check(Zoo && compareHistograms(TwoBit, (*Zoo)[0]).empty(),
        "2-bit oracle matches the zoo's per-site bimodal");
  check(Zoo && !compareHistograms(recountStaticLane(Trace, Combined),
                                  (*Zoo)[0])
                    .empty(),
        "2-bit oracle is not the static recount");

  // Characterization class tables.
  CharOptions CO;
  CO.Jobs = Jobs;
  Expected<CharReport> Char = characterizeTrace(Ctx, Trace, CO);
  check(Char && checkCharConservation(*Char, Trace.numEvents()).empty(),
        "class tables conserve sites and executions");
  if (Char) {
    CharReport C = *Char;
    ++C.ClassSites[0];
    check(!checkCharConservation(C, Trace.numEvents()).empty(),
          "class oracle rejects an altered site count");
    C = *Char;
    C.ClassExecs[2] += 5;
    C.ClassExecs[0] -= 5;
    check(!checkCharConservation(C, Trace.numEvents()).empty(),
          "class oracle rejects executions moved between classes");
    C = *Char;
    ++C.Predictors.back().Classes[1].Mispredicts;
    check(!checkCharConservation(C, Trace.numEvents()).empty(),
          "class oracle rejects an altered predictor row");
  }

  // Explain buckets against the combined lane.
  Expected<ExplainReport> Ex = explainTrace(Ctx, Trace);
  check(Ex && Fused && checkExplainSum(*Ex, (*Fused)[0].Breaks).empty(),
        "explain buckets sum to the combined lane's breaks");
  if (Ex) {
    ExplainReport E = *Ex;
    ++E.Buckets[0].Mispredicts;
    check(!checkExplainSum(E, (*Fused)[0].Breaks).empty(),
          "explain oracle rejects an altered bucket");
  }

  // Store totals.
  const StoreTotals Good = {Trace.numEvents(), Trace.totalInstrs(),
                            Trace.numEvents(), Trace.totalInstrs(),
                            R.InstrCount};
  check(checkStoreTotals(Good).empty(), "store totals agree");
  StoreTotals T = Good;
  ++T.StoreEvents;
  check(!checkStoreTotals(T).empty(), "store oracle rejects an event total");
  T = Good;
  --T.StoreInstrs;
  check(!checkStoreTotals(T).empty(),
        "store oracle rejects an instruction total");
  T = Good;
  ++T.BareInstrs;
  check(!checkStoreTotals(T).empty(),
        "store oracle rejects a capture that ran other instructions");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string PinnedPath, StoreDir;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string K = Argv[I];
    if (K == "--pinned")
      PinnedPath = Argv[I + 1];
    else if (K == "--store-dir")
      StoreDir = Argv[I + 1];
  }
  if (PinnedPath.empty() || StoreDir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_selftest --pinned FILE --store-dir DIR\n");
    return 2;
  }
  Pinned Pins;
  if (std::string E = Pins.load(PinnedPath); !E.empty()) {
    std::fprintf(stderr, "perfbench_selftest: %s\n", E.c_str());
    return 2;
  }
  std::filesystem::create_directories(StoreDir);
  testTailPercentile();
  testSeedDeterminism(Pins, StoreDir);
  testOracles();
  std::error_code EC;
  std::filesystem::remove_all(StoreDir, EC);
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "PASSED", Failures);
  return Failures ? 1 : 0;
}
