//===- perfbench/src/Passes.cpp - The three workloads' passes -------------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Each pass pushes every drawn (program, dataset) pair through its
// workload's pipeline inside one program window, with a ledger span
// around every call into a layer, then checks the outputs against the
// oracles after the window has closed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracles.h"
#include "Stats.h"

#include "frontend/Compiler.h"
#include "ipbc/Attribution.h"
#include "ipbc/Characterize.h"
#include "ipbc/DynamicReplay.h"
#include "ipbc/TraceReplay.h"
#include "predict/DynamicPredictors.h"
#include "predict/Ordering.h"
#include "predict/PredictionContext.h"
#include "vm/EdgeProfile.h"
#include "vm/Interpreter.h"
#include "vm/TraceStore.h"

#include <filesystem>

using namespace bpfree;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

uint64_t Counters::digest() const {
  const uint64_t Fields[] = {Instructions,  Events,        StoreBytes,
                             StaticBreaks, DynamicBreaks, HardSites};
  return fnv1a(Fields, sizeof(Fields));
}

void Harness::beginPass(bool Traced) {
  Cur = PassRecord();
  Cur.Traced = Traced;
  Led.setEnabled(Traced);
  ProgramIdx = UINT32_MAX; // the first beginProgram wraps it to 0
}

void Harness::endPass() {
  Passes.push_back(Cur);
  Led.setEnabled(false);
}

void Harness::beginProgram(const Pick &P) {
  ++Attempted;
  ++ProgramIdx;
  CurFailed = false;
  CurLabel = P.label();
  CpuStart = processCpuNs();
  WinStart = nowNs();
  Led.beginWindow(static_cast<uint32_t>(Passes.size()), ProgramIdx,
                  CurLabel, WinStart);
}

void Harness::endProgram() {
  const uint64_t End = nowNs();
  Led.endWindow(End);
  WinNs = End - WinStart;
  Cur.WallNs += WinNs;
  Cur.CpuNs += processCpuNs() - CpuStart;
}

void Harness::events(uint64_t N) {
  Cur.Work.Events += N;
  if (N)
    Samples.push_back({Cur.Traced, ProgramIdx,
                       static_cast<double>(WinNs) / static_cast<double>(N)});
}

void Harness::fail(const std::string &What) {
  if (!CurFailed)
    ++Failed;
  CurFailed = true;
  if (Messages.size() < 20)
    Messages.push_back(CurLabel + ": " + What);
}

namespace {

uint64_t staticBranches(const ir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M)
    for (const auto &BB : *F)
      N += BB->isCondBranch();
  return N;
}

uint64_t staticInstructions(const ir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M)
    for (const auto &BB : *F)
      N += BB->instructions().size() + 1; // + the terminator
  return N;
}

uint64_t fileBytes(const std::string &Path) {
  std::error_code EC;
  const uintmax_t N = std::filesystem::file_size(Path, EC);
  return EC ? 0 : static_cast<uint64_t>(N);
}

/// Checks one interpretation against the pinned expectations.
void checkPinned(Harness &H, const Pick &P, const RunResult &R) {
  if (!R.ok()) {
    H.fail("run failed: " + R.TrapMessage);
    return;
  }
  if (R.InstrCount != P.Expect->Instructions)
    H.fail("instructions " + std::to_string(R.InstrCount) + " != pinned " +
           std::to_string(P.Expect->Instructions));
  if (fnv1a(R.Output) != P.Expect->OutputHash ||
      R.ExitValue != P.Expect->ExitValue)
    H.fail("output differs from the pinned digest");
}

//===----------------------------------------------------------------------===//
// paper_tables: the paper's own pipeline, one program at a time
//===----------------------------------------------------------------------===//

class PaperTables : public Prepared {
public:
  explicit PaperTables(std::vector<Pick> Picks) : Picks(std::move(Picks)) {}

  std::string describe() const override {
    return std::to_string(Picks.size()) +
           " programs, compile-checked in set-up and compiled in the pass";
  }

  void runPass(Harness &H) override {
    for (const Pick &P : Picks)
      runOne(H, P);
  }

private:
  void runOne(Harness &H, const Pick &P) {
    Ledger &L = H.ledger();
    H.beginProgram(P);
    Ledger::Open S = L.begin(Layer::FrontendCompile);
    Expected<std::unique_ptr<ir::Module>> MOr = minic::compile(P.W->Source);
    S.end(P.W->Source.size(), !MOr);
    if (!MOr) {
      H.endProgram();
      H.fail("compile: " + MOr.error().render());
      return;
    }
    const ir::Module &M = **MOr;
    const uint64_t Branches = staticBranches(M);

    S = L.begin(Layer::PredictContext);
    PredictionContext Ctx(M);
    S.end(Branches);

    S = L.begin(Layer::VmDecode);
    Interpreter Interp(M);
    S.end(staticInstructions(M));

    S = L.begin(Layer::VmInterpProfile);
    EdgeProfile Profile(M);
    RunResult R = Interp.run(P.W->Datasets[P.Dataset], {&Profile});
    S.end(R.InstrCount, !R.ok());

    S = L.begin(Layer::PredictStats);
    std::vector<BranchStats> Stats = collectBranchStats(Ctx, Profile);
    LoopNonLoopBreakdown Table2 = computeLoopNonLoopBreakdown(Stats);
    std::vector<HeuristicIsolation> Table3 = computeHeuristicIsolation(Stats);
    CombinedResult Table6 = computeCombined(Stats);
    S.end(Branches);

    S = L.begin(Layer::PredictOrderSweep);
    std::vector<double> Rates = OrderEvaluator(Stats).allMissRates();
    S.end(Branches);
    H.endProgram();

    const ProfileTotals T = profileTotals(M, Profile);
    H.events(T.Events);
    checkPinned(H, P, R);
    if (T.Events != P.Expect->Events)
      H.fail("branch events differ from the pinned count");
    if (std::string E = checkTables(T, Table2, Table6); !E.empty())
      H.fail(E);
    if (Table3.size() != NumHeuristics || Rates.size() != NumOrders)
      H.fail("table shapes are wrong");
    Counters &C = H.work();
    C.Instructions += R.InstrCount;
    C.StaticBreaks += Table6.AllMiss.Num;
  }

  std::vector<Pick> Picks;
};

//===----------------------------------------------------------------------===//
// trace_capture: the write side of the trace store
//===----------------------------------------------------------------------===//

struct Compiled {
  Pick P;
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<PredictionContext> Ctx;
  std::unique_ptr<Interpreter> Interp;
  std::string StorePath;
};

bool compileAll(const std::vector<Pick> &Picks, const std::string &StoreDir,
                std::vector<Compiled> &Out, std::string &Error) {
  for (const Pick &P : Picks) {
    Compiled C;
    C.P = P;
    Expected<std::unique_ptr<ir::Module>> M = minic::compile(P.W->Source);
    if (!M) {
      Error = P.label() + ": " + M.error().render();
      return false;
    }
    C.M = M.takeValue();
    C.Ctx = std::make_unique<PredictionContext>(*C.M);
    C.Interp = std::make_unique<Interpreter>(*C.M);
    C.StorePath = StoreDir + "/" + P.W->Name + "-" +
                  P.W->Datasets[P.Dataset].Name + ".trace";
    Out.push_back(std::move(C));
  }
  return true;
}

class TraceCapture : public Prepared {
public:
  std::vector<Compiled> Programs;

  std::string describe() const override {
    return std::to_string(Programs.size()) +
           " programs, compiled and decoded in set-up";
  }

  void runPass(Harness &H) override {
    for (Compiled &C : Programs)
      runOne(H, C);
  }

private:
  void runOne(Harness &H, Compiled &C) {
    Ledger &L = H.ledger();
    const Dataset &D = C.P.W->Datasets[C.P.Dataset];
    H.beginProgram(C.P);
    Ledger::Open S = L.begin(Layer::VmInterpBare);
    RunResult Bare = C.Interp->run(D);
    S.end(Bare.InstrCount, !Bare.ok());

    S = L.begin(Layer::VmInterpCapture);
    BranchTrace Trace(*C.M);
    RunResult Cap = C.Interp->run(D, {&Trace});
    Trace.finalize(Cap.InstrCount);
    S.end(Cap.InstrCount, !Cap.ok());

    S = L.begin(Layer::VmStoreWrite);
    std::optional<Diag> WriteErr = writeTraceFile(Trace, C.StorePath);
    const uint64_t Bytes = fileBytes(C.StorePath);
    S.end(Bytes, WriteErr.has_value());

    S = L.begin(Layer::VmStoreOpen);
    TraceStoreReader Reader;
    std::optional<Diag> OpenErr = Reader.open(C.StorePath);
    S.end(Bytes, OpenErr || !Reader.complete(), Bytes);
    H.endProgram();

    H.events(Trace.numEvents());
    checkPinned(H, C.P, Bare);
    checkPinned(H, C.P, Cap);
    if (WriteErr)
      H.fail("store write: " + WriteErr->render());
    if (OpenErr)
      H.fail("store open: " + OpenErr->render());
    else if (!Reader.complete())
      H.fail("reopened store is not complete");
    if (Trace.overflowed())
      H.fail("capture overflowed its byte cap");
    if (Trace.numEvents() != C.P.Expect->Events)
      H.fail("captured events differ from the pinned count");
    if (Bare.Output != Cap.Output || Bare.ExitValue != Cap.ExitValue)
      H.fail("bare and capturing runs printed different output");
    const std::string Totals =
        checkStoreTotals({Reader.numEvents(), Reader.totalInstrs(),
                          Trace.numEvents(), Trace.totalInstrs(),
                          Bare.InstrCount});
    if (!Totals.empty())
      H.fail(Totals);
    Counters &W = H.work();
    W.Instructions += Cap.InstrCount;
    W.StoreBytes += Bytes;
  }
};

//===----------------------------------------------------------------------===//
// trace_replay: the read side of the trace store
//===----------------------------------------------------------------------===//

/// Index of the combined (Ball-Larus) lane in the static panel.
constexpr size_t CombinedLane = 1;

/// The 13-lane static panel: the three graph predictors, the three
/// naive references and the seven single-heuristic predictors, with the
/// perfect lane derived from the store instead of an edge profile.
Expected<std::vector<std::vector<uint8_t>>>
panelDirections(const PredictionContext &Ctx, const TraceStoreReader &R) {
  const ir::Module &M = Ctx.getModule();
  std::vector<std::vector<uint8_t>> Dirs;
  Dirs.push_back(predictorDirections(M, LoopRandPredictor(Ctx)));
  Dirs.push_back(predictorDirections(M, BallLarusPredictor(Ctx)));
  Expected<std::vector<uint8_t>> Perfect = perfectDirectionsFromStore(R, M);
  if (!Perfect)
    return Perfect.takeError();
  Dirs.push_back(Perfect.takeValue());
  Dirs.push_back(predictorDirections(M, AlwaysTakenPredictor()));
  Dirs.push_back(predictorDirections(M, AlwaysFallthruPredictor()));
  Dirs.push_back(predictorDirections(M, RandomPredictor()));
  for (HeuristicKind K : paperOrder())
    Dirs.push_back(predictorDirections(M, SingleHeuristicPredictor(Ctx, K)));
  return Dirs;
}

class TraceReplay : public Prepared {
public:
  std::vector<Compiled> Programs;
  std::vector<std::unique_ptr<BranchTrace>> Traces;
  std::vector<DynPredictorConfig> Zoo = standardDynamicPanel();

  std::string describe() const override {
    uint64_t Events = 0;
    for (const auto &T : Traces)
      Events += T->numEvents();
    return std::to_string(Programs.size()) + " programs captured in set-up, " +
           std::to_string(Events) + " resident events";
  }

  void runPass(Harness &H) override {
    for (size_t I = 0; I < Programs.size(); ++I)
      runOne(H, Programs[I], *Traces[I]);
  }

private:
  void runOne(Harness &H, Compiled &C, const BranchTrace &Trace) {
    Ledger &L = H.ledger();
    const uint64_t Events = Trace.numEvents();
    const uint64_t Bytes = fileBytes(C.StorePath);
    H.beginProgram(C.P);
    Ledger::Open S = L.begin(Layer::VmStoreOpen);
    TraceStoreReader Reader;
    std::optional<Diag> OpenErr = Reader.open(C.StorePath);
    S.end(Bytes, OpenErr || !Reader.complete(), Bytes);
    if (OpenErr) {
      H.endProgram();
      H.fail("store open: " + OpenErr->render());
      return;
    }

    S = L.begin(Layer::PredictDirections);
    Expected<std::vector<std::vector<uint8_t>>> DirsOr =
        panelDirections(*C.Ctx, Reader);
    const size_t Lanes = DirsOr ? DirsOr->size() : 0;
    S.end(staticBranches(*C.M) * Lanes, !DirsOr, Bytes);
    if (!DirsOr) {
      H.endProgram();
      H.fail("panel directions: " + DirsOr.error().render());
      return;
    }
    const std::vector<std::vector<uint8_t>> &Dirs = *DirsOr;
    std::vector<std::vector<uint8_t>> ResidentDirs = Dirs, DiskDirs = Dirs;

    S = L.begin(Layer::IpbcReplayStaticResident);
    Expected<std::vector<SequenceHistogram>> Resident =
        replayTraceAll(Trace, std::move(ResidentDirs), Jobs);
    S.end(Events * Lanes, !Resident);

    S = L.begin(Layer::IpbcReplayStaticDisk);
    Expected<std::vector<SequenceHistogram>> Disk =
        replayStoreAll(Reader, std::move(DiskDirs), Jobs);
    S.end(Events * Lanes, !Disk, Bytes);

    S = L.begin(Layer::IpbcReplayDynamic);
    Expected<std::vector<SequenceHistogram>> Dynamic =
        replayStoreDynamic(Reader, Zoo, Jobs);
    S.end(Events * Zoo.size(), !Dynamic, Bytes);

    S = L.begin(Layer::IpbcCharacterize);
    CharOptions CO;
    CO.Jobs = Jobs;
    Expected<CharReport> Char = characterizeStore(*C.Ctx, Reader, CO);
    S.end(Events, !Char, Bytes);

    S = L.begin(Layer::IpbcExplain);
    Expected<ExplainReport> Explain = explainTrace(*C.Ctx, Trace);
    S.end(Events, !Explain);
    H.endProgram();

    H.events(Events);
    if (Reader.numEvents() != Events ||
        Reader.totalInstrs() != Trace.totalInstrs())
      H.fail("store totals differ from the resident trace");
    if (!Resident || !Disk || !Dynamic || !Char || !Explain) {
      H.fail("a replay call returned a Diag");
      return;
    }
    for (size_t Lane = 0; Lane < Lanes; ++Lane) {
      const std::string E = compareHistograms((*Resident)[Lane], (*Disk)[Lane]);
      if (!E.empty())
        H.fail("lane " + std::to_string(Lane) + " resident vs disk: " + E);
    }
    std::string E = compareHistograms(
        recountStaticLane(Trace, Dirs[CombinedLane]), (*Resident)[CombinedLane]);
    if (!E.empty())
      H.fail("combined lane vs naive recount: " + E);
    E = compareHistograms(twoBitPerSite(Trace), (*Dynamic)[0]);
    if (!E.empty())
      H.fail("per-site bimodal vs 2-bit oracle: " + E);
    E = checkCharConservation(*Char, Events);
    if (!E.empty())
      H.fail("characterize: " + E);
    E = checkExplainSum(*Explain, (*Resident)[CombinedLane].Breaks);
    if (!E.empty())
      H.fail("explain: " + E);

    Counters &W = H.work();
    W.Instructions += Trace.totalInstrs();
    W.StoreBytes += Bytes;
    for (const SequenceHistogram &Hist : *Resident)
      W.StaticBreaks += Hist.Breaks;
    for (const SequenceHistogram &Hist : *Dynamic)
      W.DynamicBreaks += Hist.Breaks;
    W.HardSites += Char->ClassSites[static_cast<unsigned>(BranchClass::Hard)];
  }
};

} // namespace

std::unique_ptr<Prepared> perfbench::setupWorkload(const std::string &Name,
                                                   std::vector<Pick> Picks,
                                                   const SetupOptions &Opts,
                                                   std::string &Error) {
  if (Name == "paper_tables") {
    // Compile each drawn program once before timing, so a program that
    // does not compile fails set-up rather than every pass.
    for (const Pick &P : Picks)
      if (Expected<std::unique_ptr<ir::Module>> M =
              minic::compile(P.W->Source);
          !M) {
        Error = P.label() + ": " + M.error().render();
        return nullptr;
      }
    return std::make_unique<PaperTables>(std::move(Picks));
  }
  if (Name == "trace_capture") {
    auto W = std::make_unique<TraceCapture>();
    if (!compileAll(Picks, Opts.StoreDir, W->Programs, Error))
      return nullptr;
    return W;
  }
  if (Name == "trace_replay") {
    auto W = std::make_unique<TraceReplay>();
    if (!compileAll(Picks, Opts.StoreDir, W->Programs, Error))
      return nullptr;
    for (Compiled &C : W->Programs) {
      auto Trace = std::make_unique<BranchTrace>(*C.M);
      RunResult R =
          C.Interp->run(C.P.W->Datasets[C.P.Dataset], {Trace.get()});
      if (!R.ok()) {
        Error = C.P.label() + ": capture failed: " + R.TrapMessage;
        return nullptr;
      }
      Trace->finalize(R.InstrCount);
      if (std::optional<Diag> D = writeTraceFile(*Trace, C.StorePath)) {
        Error = C.P.label() + ": " + D->render();
        return nullptr;
      }
      W->Traces.push_back(std::move(Trace));
    }
    return W;
  }
  Error = "unknown workload '" + Name + "'";
  return nullptr;
}
