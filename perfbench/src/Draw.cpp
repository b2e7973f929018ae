//===- perfbench/src/Draw.cpp - Pinned expectations and seeded draws ------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracles.h"
#include "Stats.h"

#include "frontend/Compiler.h"
#include "vm/EdgeProfile.h"
#include "vm/Interpreter.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace bpfree;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Pinned expectations
//===----------------------------------------------------------------------===//

std::string Pinned::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return "cannot read '" + Path + "'";
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream S(Line);
    PinnedRun R;
    std::string Name, Hash;
    if (!(S >> R.Program >> R.Dataset >> Name >> R.Instructions >> R.Events >>
          Hash >> R.ExitValue))
      return "malformed line in '" + Path + "': " + Line;
    R.OutputHash = std::stoull(Hash, nullptr, 16);
    Runs.push_back(std::move(R));
  }
  if (Runs.empty())
    return "'" + Path + "' pins no runs";
  return "";
}

const PinnedRun *Pinned::find(const std::string &Program,
                              size_t Dataset) const {
  for (const PinnedRun &R : Runs)
    if (R.Program == Program && R.Dataset == Dataset)
      return &R;
  return nullptr;
}

int perfbench::writePinned(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return 1;
  std::fprintf(F, "# program dataset name instructions events output_fnv1a "
                  "exit_value\n");
  for (const bpfree::Workload &W : workloadSuite()) {
    Expected<std::unique_ptr<ir::Module>> M = minic::compile(W.Source);
    if (!M) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(),
                   M.error().render().c_str());
      return 1;
    }
    Interpreter Interp(**M);
    for (size_t D = 0; D < W.Datasets.size(); ++D) {
      EdgeProfile Profile(**M);
      RunResult R = Interp.run(W.Datasets[D], {&Profile});
      if (!R.ok()) {
        std::fprintf(stderr, "%s/%zu: %s\n", W.Name.c_str(), D,
                     R.TrapMessage.c_str());
        return 1;
      }
      std::fprintf(F, "%s\t%zu\t%s\t%" PRIu64 "\t%" PRIu64 "\t%016" PRIx64
                      "\t%" PRId64 "\n",
                   W.Name.c_str(), D, W.Datasets[D].Name.c_str(),
                   R.InstrCount, profileTotals(**M, Profile).Events,
                   fnv1a(R.Output), R.ExitValue);
    }
  }
  return std::fclose(F) == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Draws
//===----------------------------------------------------------------------===//

std::string Pick::label() const {
  return W->Name + "/" + W->Datasets[Dataset].Name;
}

uint64_t DrawRng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<size_t> perfbench::sizeClass(const Pinned &P,
                                         const bpfree::Workload &W,
                                         uint64_t MaxEvents) {
  std::vector<size_t> Class;
  const PinnedRun *Ref = P.find(W.Name, 0);
  if (!Ref)
    return Class;
  for (size_t D = 0; D < W.Datasets.size(); ++D) {
    const PinnedRun *R = P.find(W.Name, D);
    if (R && R->Events * 4 >= Ref->Events * 3 &&
        R->Events * 4 <= Ref->Events * 5 && R->Events <= MaxEvents)
      Class.push_back(D);
  }
  return Class;
}

namespace {

struct WorkloadSpec {
  const char *Name;
  /// Programs in the draw; empty means the whole suite.
  std::vector<const char *> Programs;
  uint64_t MaxEvents = UINT64_MAX; ///< applies to RegularPrograms
  std::vector<const char *> RegularPrograms;
};

const std::vector<WorkloadSpec> &specs() {
  static const std::vector<WorkloadSpec> S = {
      {"paper_tables", {}, UINT64_MAX, {}},
      {"trace_capture",
       {"hashbits", "markgc", "lisp", "treesort", "wordcount", "gauss",
        "relax", "fpkernels"},
       UINT64_MAX,
       {}},
      // The three hard-to-predict programs, then regular ones of at
      // most 5M branch events.
      {"trace_replay",
       {"hashbits", "fsmdispatch", "ptrchase"},
       5'000'000,
       {"lisp", "markgc", "gauss"}},
  };
  return S;
}

const WorkloadSpec *findSpec(const std::string &Name) {
  for (const WorkloadSpec &S : specs())
    if (Name == S.Name)
      return &S;
  return nullptr;
}

} // namespace

bool perfbench::knownWorkload(const std::string &Name) {
  return findSpec(Name) != nullptr;
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const WorkloadSpec &S : specs())
      N.push_back(S.Name);
    return N;
  }();
  return Names;
}

std::vector<Pick> perfbench::drawWorkload(const std::string &Name,
                                          uint64_t Seed, const Pinned &P) {
  std::vector<Pick> Picks;
  const WorkloadSpec *Spec = findSpec(Name);
  if (!Spec)
    return Picks;
  // Per-workload stream, so one seed gives unrelated draws for each.
  DrawRng R(Seed ^ fnv1a(Name));
  auto add = [&](const bpfree::Workload &W, uint64_t MaxEvents) {
    const std::vector<size_t> Class = sizeClass(P, W, MaxEvents);
    if (Class.empty())
      return false;
    Pick K;
    K.W = &W;
    K.Dataset = Class[R.below(Class.size())];
    K.Expect = P.find(W.Name, K.Dataset);
    Picks.push_back(K);
    return true;
  };
  auto addNamed = [&](const char *Program, uint64_t MaxEvents) {
    const bpfree::Workload *W = findWorkload(Program);
    return W && add(*W, MaxEvents);
  };
  if (Spec->Programs.empty()) {
    for (const bpfree::Workload &W : workloadSuite())
      if (!add(W, UINT64_MAX))
        return {};
  } else {
    for (const char *Program : Spec->Programs)
      if (!addNamed(Program, UINT64_MAX))
        return {};
  }
  for (const char *Program : Spec->RegularPrograms)
    if (!addNamed(Program, Spec->MaxEvents))
      return {};
  // Fisher-Yates: the order the closed loop runs the programs in.
  for (size_t I = Picks.size(); I > 1; --I)
    std::swap(Picks[I - 1], Picks[R.below(I)]);
  return Picks;
}
