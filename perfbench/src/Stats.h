//===- perfbench/src/Stats.h - Sample statistics ----------------*- C++ -*-===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order statistics the end-to-end metrics are built from: a median
/// and the tail percentile rule (the highest whole percentile that still
/// has at least ten samples beyond it), plus the FNV-1a digest the
/// output oracles and the work-counter fingerprint use.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the middle two for even sizes); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// The tail of a sample set: the highest whole percentile P in [50, 99]
/// whose top (100 - P)% still holds at least MinBeyond samples, and the
/// largest sample below that top group.
struct TailPoint {
  bool Valid = false;  ///< false when fewer than MinBeyond + 1 samples
  unsigned Percentile = 0;
  size_t Samples = 0;  ///< size of the whole sample set
  size_t Beyond = 0;   ///< samples strictly above the reported one
  double Value = 0.0;
};

inline constexpr size_t MinBeyond = 10;

inline TailPoint tailPoint(std::vector<double> V,
                           size_t MinBeyondSamples = MinBeyond) {
  TailPoint T;
  T.Samples = V.size();
  std::sort(V.begin(), V.end());
  for (unsigned P = 99; P >= 50; --P) {
    const size_t Beyond = V.size() * (100 - P) / 100;
    if (Beyond < MinBeyondSamples || Beyond >= V.size())
      continue;
    T.Valid = true;
    T.Percentile = P;
    T.Beyond = Beyond;
    T.Value = V[V.size() - Beyond - 1];
    return T;
  }
  return T;
}

/// 64-bit FNV-1a, folded incrementally.
inline uint64_t fnv1a(const void *Data, size_t N,
                      uint64_t H = 0xcbf29ce484222325ull) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

inline uint64_t fnv1a(const std::string &S) {
  return fnv1a(S.data(), S.size());
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
