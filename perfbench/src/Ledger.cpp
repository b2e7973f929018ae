//===- perfbench/src/Ledger.cpp - Outside-in per-layer time ledger --------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

namespace {

struct LayerInfo {
  const char *Name;
  const char *Unit;
  bool Bandwidth;
  bool Parallel;
  bool ReadsStore;
};

constexpr LayerInfo Infos[NumLayers] = {
    {"frontend.compile", "source_bytes", false, false, false},
    {"predict.context", "static_branches", false, false, false},
    {"vm.decode", "static_instructions", false, false, false},
    {"vm.interp_profile", "instructions", false, false, false},
    {"vm.interp_bare", "instructions", false, false, false},
    {"vm.interp_capture", "instructions", false, false, false},
    {"predict.stats", "static_branches", false, false, false},
    {"predict.order_sweep", "static_branches", false, false, false},
    {"predict.directions", "static_branches*lanes", false, false, true},
    {"vm.store_write", "store_bytes", true, false, false},
    {"vm.store_open", "store_bytes", true, false, true},
    {"ipbc.replay_static_resident", "events*lanes", false, true, false},
    {"ipbc.replay_static_disk", "events*lanes", false, true, true},
    {"ipbc.replay_dynamic", "events*members", false, true, true},
    {"ipbc.characterize", "events", false, true, true},
    {"ipbc.explain", "events", false, false, false},
};

const LayerInfo &info(Layer L) { return Infos[static_cast<size_t>(L)]; }

} // namespace

const char *perfbench::layerName(Layer L) { return info(L).Name; }
const char *perfbench::layerUnit(Layer L) { return info(L).Unit; }
bool perfbench::layerReportsBandwidth(Layer L) { return info(L).Bandwidth; }
bool perfbench::layerIsParallel(Layer L) { return info(L).Parallel; }
bool perfbench::layerReadsStore(Layer L) { return info(L).ReadsStore; }

uint64_t perfbench::nowNs() {
  static const auto T0 = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

uint64_t perfbench::processCpuNs() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Ns = [](const timeval &T) {
    return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(T.tv_usec) * 1000ull;
  };
  return Ns(U.ru_utime) + Ns(U.ru_stime);
}

uint64_t perfbench::processReadBytes() {
  std::FILE *F = std::fopen("/proc/self/io", "r");
  if (!F)
    return 0;
  char Line[128];
  uint64_t Rchar = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "rchar: %lu", &Rchar) == 1)
      break;
  std::fclose(F);
  return Rchar;
}

Ledger::Open Ledger::begin(Layer L) {
  Open O;
  if (!Enabled)
    return O;
  assert(InWindow && "layer span outside a program window");
  O.Owner = this;
  O.S.L = L;
  O.S.Window = static_cast<uint32_t>(Windows.size() - 1);
  if (layerIsParallel(L))
    O.Cpu0 = processCpuNs();
  if (layerReadsStore(L))
    O.Read0 = processReadBytes();
  O.S.StartNs = nowNs();
  return O;
}

void Ledger::Open::end(uint64_t Units, bool Failed, uint64_t StoreBytes) {
  if (!Owner)
    return;
  S.EndNs = nowNs();
  if (layerIsParallel(S.L))
    S.CpuNs = processCpuNs() - Cpu0;
  if (layerReadsStore(S.L))
    S.ReadBytes = processReadBytes() - Read0;
  S.Units = Units;
  S.Failed = Failed;
  S.StoreBytes = StoreBytes;
  Owner->Spans.push_back(S);
  Owner = nullptr;
}

void Ledger::beginWindow(uint32_t Pass, uint32_t Program,
                         const std::string &Name, uint64_t StartNs) {
  InWindow = true;
  if (Enabled)
    Windows.push_back({Pass, Program, Name, StartNs, StartNs});
}

void Ledger::endWindow(uint64_t EndNs) {
  InWindow = false;
  if (Enabled)
    Windows.back().EndNs = EndNs;
}

std::string Ledger::checkConservation() const {
  // Spans are recorded in the order they closed, which is start order
  // because spans never nest.
  uint64_t PrevEnd = 0;
  for (const Span &S : Spans) {
    const Window &W = Windows[S.Window];
    if (S.StartNs < W.StartNs || S.EndNs > W.EndNs)
      return std::string("span ") + layerName(S.L) +
             " straddles its program window";
    if (S.StartNs < PrevEnd)
      return std::string("span ") + layerName(S.L) +
             " overlaps the previous span";
    PrevEnd = S.EndNs;
  }
  return "";
}

bool Ledger::writeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  bool First = true;
  auto Sep = [&] {
    std::fprintf(F, First ? "" : ",\n");
    First = false;
  };
  // Window ids are their position; spans name their window as parent.
  for (size_t I = 0; I < Windows.size(); ++I) {
    const Window &Wd = Windows[I];
    Sep();
    std::fprintf(F,
                 "{\"name\":\"program %s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"pass\":%u,"
                 "\"program\":%u}}",
                 Wd.Name.c_str(), Wd.StartNs / 1e3,
                 (Wd.EndNs - Wd.StartNs) / 1e3, I, Wd.Pass, Wd.Program);
  }
  for (const Span &S : Spans) {
    Sep();
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%u,"
                 "\"pass\":%u,\"units\":%lu,\"failed\":%d}}",
                 layerName(S.L), S.StartNs / 1e3, (S.EndNs - S.StartNs) / 1e3,
                 S.Window, Windows[S.Window].Pass,
                 static_cast<unsigned long>(S.Units), S.Failed ? 1 : 0);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

std::array<LayerTotals, NumLayers>
perfbench::totalsByLayer(const std::vector<Span> &Spans) {
  std::array<LayerTotals, NumLayers> T{};
  for (const Span &S : Spans) {
    LayerTotals &L = T[static_cast<size_t>(S.L)];
    ++L.Calls;
    L.Units += S.Units;
    L.Ns += S.EndNs - S.StartNs;
    L.CpuNs += S.CpuNs;
    L.ReadBytes += S.ReadBytes;
    L.StoreBytes += S.StoreBytes;
    L.Failed += S.Failed;
  }
  return T;
}
