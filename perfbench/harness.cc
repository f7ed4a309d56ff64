#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "types/serde.h"

namespace perfbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  // In thousandths, so the sample count beyond each is exact.
  int best = 500;
  for (int q : {900, 990, 999}) {
    if (n * (1000 - q) >= min_beyond * 1000) best = q;
  }
  return best / 10.0;
}

namespace {
int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int SpanRecorder::Begin(const std::string& name, int parent, int run) {
  if (!enabled_) return -1;
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.run = run;
  s.name = name;
  s.start_ns = WallNs();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = WallNs();
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"run\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, s.run, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children, clipped to the parent.
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
        continue;
      }
      if (open) covered += cur_end - cur_start;
      cur_start = a;
      cur_end = b;
      open = true;
    }
    if (open) covered += cur_end - cur_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::map<int, int64_t>> SelfTimeByNameAndRun(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::map<int, int64_t>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name][spans[i].run] += self[i];
  }
  return out;
}

std::vector<std::string> SortedEncodings(const streampart::TupleBatch& batch) {
  std::vector<std::string> out;
  out.reserve(batch.size());
  for (const streampart::Tuple& t : batch) {
    std::string wire;
    streampart::EncodeTuple(t, &wire);
    out.push_back(std::move(wire));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
