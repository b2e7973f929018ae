//===- perfbench/src/Ledger.h - Outside-in per-layer time ledger -*- C++ -*-===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each call it makes into a
/// layer's public functions. Nothing inside the library is instrumented:
/// a layer's time is the wall time of the calls into it, and "other" is
/// the part of a pass's timed program windows that no layer span covers
/// (the benchmark's own glue and anything the library does between the
/// calls). Spans never nest, so a span's self time is its duration.
///
/// Spans are kept in memory and written out once, at exit, as a Chrome
/// trace-event file. A disabled ledger records nothing; begin()/end()
/// cost one branch, so untraced passes carry no per-call clock reads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layers, named after the library's modules.
enum class Layer : uint8_t {
  FrontendCompile,
  PredictContext,
  VmDecode,
  VmInterpProfile,
  VmInterpBare,
  VmInterpCapture,
  PredictStats,
  PredictOrderSweep,
  PredictDirections,
  VmStoreWrite,
  VmStoreOpen,
  IpbcReplayStaticResident,
  IpbcReplayStaticDisk,
  IpbcReplayDynamic,
  IpbcCharacterize,
  IpbcExplain,
};
inline constexpr size_t NumLayers = 16;

const char *layerName(Layer L);
/// The layer's unit of work, e.g. "source_bytes" or "events*lanes".
const char *layerUnit(Layer L);
/// Store layers report a byte rate (MB/s) instead of ns per unit.
bool layerReportsBandwidth(Layer L);
/// Layers that run on the Jobs=2 thread pool and report cpu_per_wall.
bool layerIsParallel(Layer L);
/// Layers that read a trace store and report read amplification.
bool layerReadsStore(Layer L);

/// Monotonic nanoseconds since the first call.
uint64_t nowNs();
/// Process CPU time (user + system, all threads) in nanoseconds.
uint64_t processCpuNs();
/// Bytes this process has read through read(2)-like calls so far
/// (/proc/self/io rchar); 0 where the kernel does not provide it.
uint64_t processReadBytes();

struct Span {
  Layer L;
  uint32_t Window; ///< index of the program window that caused it
  uint64_t StartNs;
  uint64_t EndNs;
  uint64_t Units = 0;
  uint64_t CpuNs = 0;     ///< process CPU over the span (parallel layers)
  uint64_t ReadBytes = 0; ///< rchar delta (store-reading layers)
  uint64_t StoreBytes = 0; ///< size of the store read (store-reading layers)
  bool Failed = false;
};

/// One timed program window of a pass: [StartNs, EndNs).
struct Window {
  uint32_t Pass;
  uint32_t Program;
  std::string Name;
  uint64_t StartNs;
  uint64_t EndNs;
};

class Ledger {
public:
  /// An open span; end() closes it. Inert when the ledger is disabled.
  class Open {
  public:
    void end(uint64_t Units, bool Failed = false, uint64_t StoreBytes = 0);

  private:
    friend class Ledger;
    Ledger *Owner = nullptr;
    Span S{};
    uint64_t Cpu0 = 0;
    uint64_t Read0 = 0;
  };

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span of \p L in the current program window.
  Open begin(Layer L);

  /// Program windows bracket every span; the pass harness opens and
  /// closes them (recorded only while enabled).
  void beginWindow(uint32_t Pass, uint32_t Program, const std::string &Name,
                   uint64_t StartNs);
  void endWindow(uint64_t EndNs);

  const std::vector<Span> &spans() const { return Spans; }

  /// Checks that every span lies inside its program window and that no
  /// two spans overlap, so layer self times plus "other" add up to the
  /// pass wall exactly. \returns "" when the ledger conserves, else the
  /// first violation.
  std::string checkConservation() const;

  /// Writes the spans and windows as Chrome trace events to \p Path.
  bool writeTrace(const std::string &Path) const;

private:
  bool Enabled = false;
  bool InWindow = false;
  std::vector<Span> Spans;
  std::vector<Window> Windows;
};

/// Per-layer totals over the traced passes.
struct LayerTotals {
  uint64_t Calls = 0;
  uint64_t Units = 0;
  uint64_t Ns = 0;
  uint64_t CpuNs = 0;
  uint64_t ReadBytes = 0;
  uint64_t StoreBytes = 0;
  uint64_t Failed = 0;
};

std::array<LayerTotals, NumLayers> totalsByLayer(const std::vector<Span> &S);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
