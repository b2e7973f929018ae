//===- perfbench/src/Oracles.h - First-principles output checks -*- C++ -*-===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Output oracles the benchmark checks every pass. Each recomputes a
/// library result from its definition in a few lines of the benchmark's
/// own code — never by calling the library path under test a second
/// time — so a shared misconception cannot pass both sides. Checks
/// return "" on success and a one-line description of the first
/// disagreement otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include "ipbc/Attribution.h"
#include "ipbc/Characterize.h"
#include "ipbc/SequenceAnalysis.h"
#include "predict/Evaluation.h"
#include "vm/BranchTrace.h"
#include "vm/EdgeProfile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Dynamic conditional-branch executions and the perfect static
/// predictor's misses, sum of min(taken, fall-thru) over every
/// conditional branch, read straight off the edge profile.
struct ProfileTotals {
  uint64_t Events = 0;
  uint64_t PerfectMisses = 0;
};
ProfileTotals profileTotals(const bpfree::ir::Module &M,
                            const bpfree::EdgeProfile &P);

/// The paper tables cover every branch event, and their perfect-predictor
/// misses are the profile's.
std::string checkTables(const ProfileTotals &T,
                        const bpfree::LoopNonLoopBreakdown &Table2,
                        const bpfree::CombinedResult &Table6);

/// Break-in-control histogram of one static direction array over the
/// resident trace, sequenced event by event (the definition of a break:
/// the branch went the way the array did not predict).
bpfree::SequenceHistogram recountStaticLane(const bpfree::BranchTrace &T,
                                            const std::vector<uint8_t> &Dirs);

/// The same histogram for an alias-free 2-bit saturating counter per
/// site, counters starting in the weak states alternately weakly
/// not-taken and weakly taken by site index (the flip-flop convention
/// of SimpleScalar's bimodal table).
bpfree::SequenceHistogram twoBitPerSite(const bpfree::BranchTrace &T);

std::string compareHistograms(const bpfree::SequenceHistogram &Expected,
                              const bpfree::SequenceHistogram &Got);

/// Characterization conserves sites and executions: the class tables
/// partition the sites and the events, the per-site rows sum to them,
/// and every predictor row's misses partition by class.
std::string checkCharConservation(const bpfree::CharReport &R,
                                  uint64_t Events);

/// Explain's attribution buckets sum to the combined predictor's breaks.
std::string checkExplainSum(const bpfree::ExplainReport &R,
                            uint64_t CombinedBreaks);

/// The store reopened from disk holds the capture: same events and
/// instructions as the resident trace, and the capture ran as many
/// instructions as the bare run of the same program.
struct StoreTotals {
  uint64_t StoreEvents = 0;
  uint64_t StoreInstrs = 0;
  uint64_t TraceEvents = 0;
  uint64_t TraceInstrs = 0;
  uint64_t BareInstrs = 0;
};
std::string checkStoreTotals(const StoreTotals &T);

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H
