//===- perfbench/src/Bench.h - Workloads, draws and pass harness -*- C++ -*-===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads. A workload is a set of (program, dataset)
/// pairs drawn from a seed, a set-up that prepares them, and a pass that
/// pushes every pair through the workload's pipeline once. The harness
/// times each pair's pipeline as one sample (its program window), runs
/// the output oracles outside those windows, and accumulates the exact
/// work counters a later change must reproduce.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Ledger.h"

#include "workloads/Workloads.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Replay and characterization run on two pool workers; interpretation
/// is single-threaded.
inline constexpr unsigned Jobs = 2;

//===----------------------------------------------------------------------===//
// Pinned expectations
//===----------------------------------------------------------------------===//

/// One (program, dataset) run as pinned in expected/pinned.tsv.
struct PinnedRun {
  std::string Program;
  size_t Dataset = 0;
  uint64_t Instructions = 0;
  uint64_t Events = 0;
  uint64_t OutputHash = 0; ///< FNV-1a of the program's printed output
  int64_t ExitValue = 0;
};

class Pinned {
public:
  /// Reads \p Path; \returns "" or a description of what is wrong.
  std::string load(const std::string &Path);
  const PinnedRun *find(const std::string &Program, size_t Dataset) const;

private:
  std::vector<PinnedRun> Runs;
};

/// Interprets every dataset of every program and writes the pinned
/// expectations to \p Path. \returns 0 on success.
int writePinned(const std::string &Path);

//===----------------------------------------------------------------------===//
// Draws
//===----------------------------------------------------------------------===//

struct Pick {
  const bpfree::Workload *W = nullptr;
  size_t Dataset = 0;
  const PinnedRun *Expect = nullptr;

  std::string label() const;
};

/// splitmix64: the benchmark's own generator, so a draw never depends
/// on the library's RNG.
class DrawRng {
public:
  explicit DrawRng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t S;
};

/// Datasets of \p Program that a draw may pick: those whose pinned
/// branch-event count is within 25% of the reference dataset's (index
/// 0), optionally capped at \p MaxEvents. Holding the size class keeps
/// every seed's work comparable while the inputs themselves change.
std::vector<size_t> sizeClass(const Pinned &P, const bpfree::Workload &W,
                              uint64_t MaxEvents = UINT64_MAX);

/// The seeded draw of a workload: the program set, each program's
/// dataset from its size class, and the order the programs run in.
/// \returns empty for an unknown workload name.
std::vector<Pick> drawWorkload(const std::string &Workload, uint64_t Seed,
                               const Pinned &P);

bool knownWorkload(const std::string &Name);
const std::vector<std::string> &workloadNames();

//===----------------------------------------------------------------------===//
// Pass harness
//===----------------------------------------------------------------------===//

/// The exact work one pass does. Deterministic for a given draw: every
/// pass of a run, and every run of a seed, must reproduce it.
struct Counters {
  uint64_t Instructions = 0;
  uint64_t Events = 0;
  uint64_t StoreBytes = 0;
  uint64_t StaticBreaks = 0;  ///< summed over every static lane evaluated
  uint64_t DynamicBreaks = 0; ///< summed over every dynamic zoo member
  uint64_t HardSites = 0;     ///< sites characterized as hard to predict

  bool operator==(const Counters &) const = default;
  uint64_t digest() const;
};

/// Per-pass timing as the harness measured it.
struct PassRecord {
  bool Traced = false;
  uint64_t WallNs = 0; ///< sum of the program windows
  uint64_t CpuNs = 0;  ///< process CPU inside the program windows
  Counters Work;
};

class Harness {
public:
  explicit Harness(Ledger &L) : Led(L) {}

  Ledger &ledger() { return Led; }

  /// Brackets one program's pipeline: the sample window.
  void beginProgram(const Pick &P);
  void endProgram();
  /// Credits the closed window with the pair's \p N branch events: one
  /// ns-per-event sample, and N events of the pass's work.
  void events(uint64_t N);

  /// Records an operation failure (Diag, trap, or oracle mismatch) for
  /// the current program. Failures count once per program per pass.
  void fail(const std::string &What);

  /// Work counters of the current pass.
  Counters &work() { return Cur.Work; }

  void beginPass(bool Traced);
  void endPass();

  const std::vector<PassRecord> &passes() const { return Passes; }
  struct Sample {
    bool Traced;
    uint32_t Program; ///< position in the pass, the draw's run order
    double NsPerEvent;
  };
  const std::vector<Sample> &samples() const { return Samples; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &failures() const { return Messages; }

private:
  Ledger &Led;
  PassRecord Cur;
  std::vector<PassRecord> Passes;
  std::vector<Sample> Samples;
  std::vector<std::string> Messages;
  std::string CurLabel;
  uint64_t WinStart = 0;
  uint64_t WinNs = 0;
  uint64_t CpuStart = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint32_t ProgramIdx = 0;
  bool CurFailed = false;
};

/// A prepared workload: set-up is done, and runPass pushes every drawn
/// pair through the pipeline once.
class Prepared {
public:
  Prepared() = default;
  Prepared(const Prepared &) = delete;
  Prepared &operator=(const Prepared &) = delete;
  virtual ~Prepared() = default;
  virtual void runPass(Harness &H) = 0;
  /// One-line description of what set-up prepared, for the report.
  virtual std::string describe() const = 0;
};

struct SetupOptions {
  std::string StoreDir; ///< where trace stores are written
};

/// Builds the workload for \p Picks: everything the timed passes need
/// that is not part of the pipeline being measured (compiles and
/// captures where the workload does them in set-up).
std::unique_ptr<Prepared> setupWorkload(const std::string &Name,
                                        std::vector<Pick> Picks,
                                        const SetupOptions &Opts,
                                        std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
