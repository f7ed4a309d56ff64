#pragma once

/// \file harness.h
/// \brief Measurement helpers of the repo benchmark: order statistics,
/// in-memory spans with self time, a monotonic and a process-CPU clock, and
/// the multiset comparison behind the answer checks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "types/tuple.h"

namespace perfbench {

/// \brief Median of \p v (mean of the two middle values for even sizes);
/// 0 for an empty vector.
double Median(std::vector<double> v);

/// \brief The \p q-th percentile (0 <= q <= 100) of \p v by linear
/// interpolation between closest ranks (numpy's default); 0 when empty.
double Percentile(std::vector<double> v, double q);

/// \brief Largest of 50, 90, 99, 99.9 that leaves at least \p min_beyond
/// samples above it among \p n samples (50 when none does).
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// \brief Monotonic wall clock, nanoseconds.
int64_t WallNs();
/// \brief CPU time of the whole process (every thread), nanoseconds.
int64_t ProcessCpuNs();

/// \brief One recorded interval. Spans of one pipeline run share `run`;
/// `parent` is the id of the enclosing span, -1 for a root.
struct Span {
  int id = 0;
  int parent = -1;
  int run = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Keeps spans in memory; written out once the benchmark ends.
/// A disabled recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// \brief Opens a span and returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent, int run);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// \brief Writes one JSON object per span; false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// \brief RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int parent, int run)
      : rec_(rec), id_(rec->Begin(name, parent, run)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// \brief Self time of each span: its duration minus the part of its
/// interval covered by its child spans (overlapping children are counted
/// once). Indexed like \p spans; ids must equal positions.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief Per run, the self time summed over all spans of each name:
/// result[name][run].
std::map<std::string, std::map<int, int64_t>> SelfTimeByNameAndRun(
    const std::vector<Span>& spans);

/// \brief Order-independent fingerprint of a tuple multiset: each tuple's
/// wire encoding (types/serde.h), sorted. Two batches hold the same tuples
/// with the same multiplicities exactly when their fingerprints are equal.
std::vector<std::string> SortedEncodings(const streampart::TupleBatch& batch);

}  // namespace perfbench
