//===- perfbench/src/Oracles.cpp - First-principles output checks ---------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include <algorithm>

using namespace bpfree;
using namespace perfbench;

namespace {

std::string mismatch(const char *What, uint64_t Want, uint64_t Got) {
  return std::string(What) + ": expected " + std::to_string(Want) + ", got " +
         std::to_string(Got);
}

/// Sequences a stream of (branch, mispredicted) outcomes into a histogram.
struct Sequencer {
  SequenceHistogram H;
  uint64_t IC = 0;
  uint64_t LastBreak = 0;

  void event(uint64_t Delta, bool Miss) {
    IC += Delta;
    ++H.BranchExecs;
    if (!Miss)
      return;
    H.record(IC - LastBreak);
    ++H.Breaks;
    LastBreak = IC;
  }
  SequenceHistogram finish(uint64_t TotalInstrs) {
    if (TotalInstrs > LastBreak)
      H.record(TotalInstrs - LastBreak);
    return H;
  }
};

} // namespace

ProfileTotals perfbench::profileTotals(const ir::Module &M,
                                       const EdgeProfile &P) {
  ProfileTotals T;
  for (const auto &F : M)
    for (const auto &BB : *F) {
      if (!BB->isCondBranch())
        continue;
      const EdgeProfile::Counts &C = P.get(*BB);
      T.Events += C.Taken + C.Fallthru;
      T.PerfectMisses += std::min(C.Taken, C.Fallthru);
    }
  return T;
}

std::string perfbench::checkTables(const ProfileTotals &T,
                                   const LoopNonLoopBreakdown &Table2,
                                   const CombinedResult &Table6) {
  if (Table6.AllPerfectMiss.Num != T.PerfectMisses)
    return mismatch("perfect-predictor misses", T.PerfectMisses,
                    Table6.AllPerfectMiss.Num);
  if (Table2.TotalExecs != T.Events)
    return mismatch("Table 2 branch executions", T.Events, Table2.TotalExecs);
  if (Table6.AllMiss.Den != T.Events)
    return mismatch("Table 6 branch executions", T.Events, Table6.AllMiss.Den);
  return "";
}

SequenceHistogram perfbench::recountStaticLane(const BranchTrace &T,
                                               const std::vector<uint8_t> &Dirs) {
  Sequencer S;
  T.forEach([&](uint32_t Idx, bool Taken, uint64_t Delta) {
    const unsigned Actual = Taken ? DirTaken : DirFallthru;
    S.event(Delta, Dirs[Idx] != Actual);
  });
  return S.finish(T.totalInstrs());
}

SequenceHistogram perfbench::twoBitPerSite(const BranchTrace &T) {
  const std::vector<uint32_t> Offsets = flatBlockOffsets(T.getModule());
  std::vector<uint8_t> Counter(Offsets.back());
  for (size_t I = 0; I < Counter.size(); ++I)
    Counter[I] = I % 2 ? 2 : 1;
  Sequencer S;
  T.forEach([&](uint32_t Idx, bool Taken, uint64_t Delta) {
    uint8_t &C = Counter[Idx];
    S.event(Delta, (C >= 2) != Taken);
    if (Taken && C < 3)
      ++C;
    else if (!Taken && C > 0)
      --C;
  });
  return S.finish(T.totalInstrs());
}

std::string perfbench::compareHistograms(const SequenceHistogram &E,
                                         const SequenceHistogram &G) {
  if (E.BranchExecs != G.BranchExecs)
    return mismatch("branch executions", E.BranchExecs, G.BranchExecs);
  if (E.Breaks != G.Breaks)
    return mismatch("breaks", E.Breaks, G.Breaks);
  if (E.TotalInstrs != G.TotalInstrs)
    return mismatch("sequenced instructions", E.TotalInstrs, G.TotalInstrs);
  for (size_t B = 0; B < SequenceHistogram::NumBuckets; ++B) {
    if (E.NumSequences[B] != G.NumSequences[B])
      return mismatch(("sequences in bucket " + std::to_string(B)).c_str(),
                      E.NumSequences[B], G.NumSequences[B]);
    if (E.SumLengths[B] != G.SumLengths[B])
      return mismatch(("length in bucket " + std::to_string(B)).c_str(),
                      E.SumLengths[B], G.SumLengths[B]);
  }
  return "";
}

std::string perfbench::checkCharConservation(const CharReport &R,
                                             uint64_t Events) {
  if (R.BranchExecs != Events)
    return mismatch("characterized executions", Events, R.BranchExecs);
  uint64_t Sites = 0, Execs = 0;
  for (unsigned C = 0; C < NumBranchClasses; ++C) {
    Sites += R.ClassSites[C];
    Execs += R.ClassExecs[C];
  }
  if (Sites != R.NumSites || Sites != R.Sites.size())
    return mismatch("class-table sites", R.Sites.size(), Sites);
  if (Execs != Events)
    return mismatch("class-table executions", Events, Execs);
  uint64_t RowSites[NumBranchClasses] = {}, RowExecs[NumBranchClasses] = {};
  for (const SiteCharacter &S : R.Sites) {
    ++RowSites[static_cast<unsigned>(S.Class)];
    RowExecs[static_cast<unsigned>(S.Class)] += S.Execs;
  }
  for (unsigned C = 0; C < NumBranchClasses; ++C) {
    if (RowSites[C] != R.ClassSites[C])
      return mismatch("per-site rows of one class", R.ClassSites[C],
                      RowSites[C]);
    if (RowExecs[C] != R.ClassExecs[C])
      return mismatch("per-site executions of one class", R.ClassExecs[C],
                      RowExecs[C]);
  }
  for (const ClassPredictorRow &P : R.Predictors) {
    uint64_t Misses = 0;
    for (unsigned C = 0; C < NumBranchClasses; ++C) {
      Misses += P.Classes[C].Mispredicts;
      if (P.Classes[C].Execs != R.ClassExecs[C])
        return mismatch(("executions of " + P.Name + " by class").c_str(),
                        R.ClassExecs[C], P.Classes[C].Execs);
    }
    if (Misses != P.Mispredicts)
      return mismatch(("misses of " + P.Name + " by class").c_str(),
                      P.Mispredicts, Misses);
  }
  return "";
}

std::string perfbench::checkExplainSum(const ExplainReport &R,
                                       uint64_t CombinedBreaks) {
  uint64_t Sum = 0;
  for (const BucketStats &B : R.Buckets)
    Sum += B.Mispredicts;
  if (Sum != CombinedBreaks)
    return mismatch("explain bucket misses", CombinedBreaks, Sum);
  if (R.Mispredicts != CombinedBreaks)
    return mismatch("explain total misses", CombinedBreaks, R.Mispredicts);
  return "";
}

std::string perfbench::checkStoreTotals(const StoreTotals &T) {
  if (T.StoreEvents != T.TraceEvents)
    return mismatch("store events", T.TraceEvents, T.StoreEvents);
  if (T.StoreInstrs != T.TraceInstrs)
    return mismatch("store instructions", T.TraceInstrs, T.StoreInstrs);
  if (T.TraceInstrs != T.BareInstrs)
    return mismatch("captured instructions", T.BareInstrs, T.TraceInstrs);
  return "";
}
