/// \file main.cc
/// \brief Main program of the repo benchmark (README.md, BENCHMARK.json).
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--spans PATH] [--smoke]
///
/// Generates the workload's trace from the seed, then replays it through
/// the full pipeline (workload.h) in a closed loop: one thread pushes the
/// next 1024-tuple batch as soon as the previous push returns. Pipeline
/// runs repeat until S seconds are spent; every run's answers are checked.
/// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 adds
/// traced runs (spans kept in memory, written to --spans at the end) and
/// direct timings of single layers, and prints the per-layer metrics. The
/// last stdout line is the result object; the line before it holds the run
/// facts. Exit 1 on any answer mismatch or path-guard failure, 2 on usage.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/local_engine.h"
#include "harness.h"
#include "metrics/stats.h"
#include "workload.h"

namespace {

using namespace perfbench;
using streampart::TupleBatch;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
  bool smoke = false;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--smoke]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Checks one run's answers against the references; empty when they match.
class AnswerChecker {
 public:
  explicit AnswerChecker(
      const std::map<std::string, TupleBatch>& centralized) {
    for (const auto& [stream, batch] : centralized) {
      centralized_[stream] = SortedEncodings(batch);
    }
  }

  /// The run this workload must reproduce: ledger bytes when
  /// \p same_ledger, sink answers otherwise.
  void SetBaseline(const PipelineRun& base, bool same_ledger) {
    has_baseline_ = true;
    same_ledger_ = same_ledger;
    baseline_ledger_ = base.ledger_jsonl;
    for (const auto& [stream, batch] : base.outputs) {
      baseline_[stream] = SortedEncodings(batch);
    }
  }

  std::string Check(const PipelineRun& run) const {
    if (run.outputs.empty()) return "no sink outputs";
    std::map<std::string, std::vector<std::string>> got;
    for (const auto& [stream, batch] : run.outputs) {
      got[stream] = SortedEncodings(batch);
      // Only sink streams are compared: the reference also holds every
      // intermediate query.
      auto it = centralized_.find(stream);
      if (it == centralized_.end()) {
        return "sink " + stream + " missing from RunCentralized";
      }
      if (it->second != got[stream]) {
        return "sink " + stream + " differs from RunCentralized (" +
               std::to_string(got[stream].size()) + " vs " +
               std::to_string(it->second.size()) + " tuples)";
      }
    }
    if (has_baseline_ && same_ledger_ &&
        run.ledger_jsonl != baseline_ledger_) {
      return "ledger JSONL differs from the single-threaded run";
    }
    if (has_baseline_ && !same_ledger_ && got != baseline_) {
      return "answers differ from the healthy run";
    }
    return "";
  }

 private:
  std::map<std::string, std::vector<std::string>> centralized_;
  bool has_baseline_ = false;
  bool same_ledger_ = false;
  std::string baseline_ledger_;
  std::map<std::string, std::vector<std::string>> baseline_;
};

/// The timings kept per pipeline run (outputs are checked, then dropped).
struct RunTimes {
  int64_t replay_ns = 0;
  int64_t replay_cpu_ns = 0;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    rows_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].second.first);
      out += (i ? ", " : "") + JsonString(rows_[i].first) +
             ": {\"value\": " + buf +
             ", \"unit\": " + JsonString(rows_[i].second.second) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

std::vector<double> Collect(const std::vector<RunTimes>& runs,
                            double (*fn)(const RunTimes&)) {
  std::vector<double> out;
  for (const RunTimes& r : runs) out.push_back(fn(r));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  std::optional<Workload> w = FindWorkload(args.workload, args.seed, args.smoke);
  if (!w) return Usage(("unknown workload " + args.workload).c_str());

  // --- before timing: trace, references, guards ----------------------------
  int64_t gen_ns = 0;
  const TupleBatch trace = GenerateTrace(*w, &gen_ns);
  const double n = static_cast<double>(trace.size());
  AnswerChecker checker([&] {
    streampart::bench::BenchSetup ref = w->make_setup();
    auto central = streampart::RunCentralized(*ref.graph, "TCP", trace);
    if (!central.ok()) {
      std::fprintf(stderr, "perfbench: RunCentralized: %s\n",
                   central.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*central);
  }());

  int attempted = 0;
  int failed = 0;
  auto check = [&](const PipelineRun& run, const char* what) {
    ++attempted;
    std::string why = checker.Check(run);
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s run: MISMATCH: %s\n", what,
                   why.c_str());
    }
  };

  SpanRecorder off(false);
  if (!w->same_as.empty()) {
    PipelineRun base = RunPipeline(
        *FindWorkload(w->same_as, args.seed, args.smoke), trace, &off, 0,
        false);
    check(base, w->same_as.c_str());
    checker.SetBaseline(base, w->threads > 1);
  }

  // Untimed runs first: warm-up, the heap meter and the path guards. A
  // single-threaded replay's heap peak is the same every run; a parallel
  // one also holds the ring backlog, which swings by tens of MB from run to
  // run with the thread schedule, so it is the least of several runs.
  const int heap_runs = w->threads > 1 ? 5 : 1;
  std::vector<double> heap_mb;
  PipelineRun first;
  for (int i = 0; i < heap_runs; ++i) {
    PipelineRun run = RunPipeline(*w, trace, &off, 0, true);
    check(run, "metered");
    heap_mb.push_back(run.replay_heap_bytes / 1e6);
    if (i == 0) first = std::move(run);
  }
  std::fprintf(stderr, "parallel_fallback_reason: %s\n",
               first.parallel_fallback_reason.empty()
                   ? "(none)"
                   : first.parallel_fallback_reason.c_str());
  std::fprintf(stderr, "columnar_fallback_reason: %s\n",
               first.columnar_fallback_reason.empty()
                   ? "(none)"
                   : first.columnar_fallback_reason.c_str());
  if (w->threads > 1 &&
      (!first.parallel_active || !first.parallel_fallback_reason.empty())) {
    std::fprintf(stderr, "perfbench: %s did not run in parallel: %s\n",
                 w->name.c_str(), first.parallel_fallback_reason.c_str());
    return 1;
  }
  if (!w->fault_plan.empty() &&
      (!first.recovery.active || first.dead_hosts.empty() ||
       first.recovery.restores == 0)) {
    std::fprintf(stderr,
                 "perfbench: %s: recovery section inactive or no host "
                 "killed and restored\n",
                 w->name.c_str());
    return 1;
  }

  // --- timed runs ----------------------------------------------------------
  // Timed runs until the deadline. With --trace 1, untraced and traced
  // runs alternate, so both see the same spells of a shared machine and
  // their difference is the cost of the spans. Set-up alone is a few
  // hundred microseconds, too short to read steadily off one sample per
  // replay; so with --trace 0 it repeats after each replay for a tenth of
  // that replay's time, spreading its samples over the run.
  SpanRecorder spans(true);
  std::vector<RunTimes> untraced, traced;
  std::vector<double> setup_s;
  const bool with_spans = args.trace == 1;
  const double timed_s = with_spans ? args.seconds * 0.6 : args.seconds / 1.1;
  int64_t deadline = WallNs() + static_cast<int64_t>(timed_s * 1e9);
  for (int run_id = 1; untraced.size() < 3 ||
                       (with_spans && traced.size() < 3) ||
                       WallNs() < deadline;
       ++run_id) {
    bool traced_run = with_spans && run_id % 2 == 0;
    PipelineRun run =
        RunPipeline(*w, trace, traced_run ? &spans : &off, run_id, false);
    check(run, "timed");
    (traced_run ? traced : untraced)
        .push_back({run.replay_ns, run.replay_cpu_ns});
    if (with_spans) continue;
    int64_t setup_deadline = WallNs() + run.replay_ns / 10;
    for (int i = 0; i < 5 || WallNs() < setup_deadline; ++i) {
      setup_s.push_back(
          RunPipeline(*w, trace, &off, 0, false, false).setup_ns * 1e-9);
    }
  }
  LayerTimings layers;
  if (with_spans) {
    layers = TimeLayers(*w, trace, first.partition_set, args.seconds * 0.4);
  }

  // --- report --------------------------------------------------------------
  auto replay_s = [](const RunTimes& r) { return r.replay_ns * 1e-9; };
  double replay_median_s = Median(Collect(untraced, replay_s));
  double replay_cpu_median_s = Median(
      Collect(untraced, [](const RunTimes& r) { return r.replay_cpu_ns * 1e-9; }));
  Metrics m;
  size_t push_calls = 0;
  if (args.trace == 0) {
    std::vector<double> tps, cpu_per_tuple;
    for (const RunTimes& r : untraced) {
      tps.push_back(n / (r.replay_ns * 1e-9));
      cpu_per_tuple.push_back(static_cast<double>(r.replay_cpu_ns) / n);
    }
    m.Add("replay_tuples_per_s", Median(tps), "tuples/s");
    m.Add("replay_cpu_ns_per_tuple", Median(cpu_per_tuple), "ns");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("agg_cpu_pct", first.agg_cpu_pct, "%");
    m.Add("agg_net_tuples_per_s", first.agg_net_tuples_per_s, "tuples/s");
    m.Add("answer_match_share",
          static_cast<double>(attempted - failed) / attempted, "runs/runs");
  } else {
    // Span durations and self times, per run, then the median over runs.
    std::map<std::string, std::map<int, int64_t>> self =
        SelfTimeByNameAndRun(spans.spans());
    std::map<std::string, std::map<int, int64_t>> total;
    std::vector<double> push_us;
    for (const Span& s : spans.spans()) {
      total[s.name][s.run] += s.end_ns - s.start_ns;
      if (s.name == "push") push_us.push_back((s.end_ns - s.start_ns) * 1e-3);
    }
    auto median_of = [](const std::map<int, int64_t>& by_run, double scale) {
      std::vector<double> v;
      for (const auto& [run, ns] : by_run) v.push_back(ns * scale);
      return Median(v);
    };
    m.Add("plan.add_query_us", median_of(total["add_query"], 1e-3), "us");
    m.Add("partition.advise_us", median_of(total["advise"], 1e-3), "us");
    m.Add("partition.candidates", static_cast<double>(first.candidates),
          "count");
    m.Add("optimizer.optimize_us", median_of(total["optimize"], 1e-3), "us");
    m.Add("dist.build_us", median_of(total["build"], 1e-3), "us");
    m.Add("partitioner.route_ns_per_tuple", layers.route_ns, "ns/tuple");
    m.Add("partitioner.max_over_mean", layers.route_max_over_mean, "ratio");
    m.Add("exec.batch_ns_per_tuple", layers.exec_batch_ns, "ns/tuple");
    m.Add("exec.columnar_ns_per_tuple", layers.exec_columnar_ns, "ns/tuple");
    m.Add("exec.transpose_ns_per_tuple", layers.transpose_ns, "ns/tuple");
    m.Add("serde.encode_ns_per_tuple", layers.encode_ns, "ns/tuple");
    m.Add("serde.decode_ns_per_tuple", layers.decode_ns, "ns/tuple");
    m.Add("serde.bytes_per_tuple", layers.bytes_per_tuple, "bytes/tuple");
    m.Add("dist.net_tuples", static_cast<double>(first.net_tuples), "count");
    m.Add("dist.net_bytes", static_cast<double>(first.net_bytes), "bytes");
    push_calls = push_us.size();
    m.Add("dist.push_p50_us", Percentile(push_us, 50), "us");
    m.Add("dist.push_p99_us", Percentile(push_us, 99), "us");
    m.Add("dist.finish_ms", median_of(total["finish"], 1e-6), "ms");
    m.Add("dist.replay_peak_mb",
          *std::min_element(heap_mb.begin(), heap_mb.end()), "MB");
    m.Add("parallel.cores_busy", replay_cpu_median_s / replay_median_s,
          "cores");
    m.Add("parallel.morsels", static_cast<double>(first.morsels), "count");
    m.Add("parallel.steals", static_cast<double>(first.steals), "count");
    m.Add("parallel.worker_tuple_skew", first.worker_tuple_skew, "ratio");
    m.Add("recovery.checkpoint_bytes",
          static_cast<double>(first.recovery.checkpoint_bytes), "bytes");
    m.Add("recovery.restored_bytes",
          static_cast<double>(first.recovery.restored_bytes), "bytes");
    m.Add("recovery.replayed_tuples",
          static_cast<double>(first.recovery.replayed_tuples), "count");
    m.Add("metrics.ledger_ms", median_of(total["ledger"], 1e-6), "ms");
    m.Add("trace.gen_ns_per_tuple", gen_ns / n, "ns/tuple");
    m.Add("cpu_model.modeled_over_measured",
          first.modeled_cpu_s / replay_cpu_median_s, "ratio");
    for (const char* name : {"setup", "replay", "add_query", "advise",
                             "optimize", "build", "push", "finish",
                             "ledger"}) {
      m.Add(std::string("self.") + name + "_us", median_of(self[name], 1e-3),
            "us");
    }
    double traced_median_s = Median(Collect(traced, replay_s));
    m.Add("bench.trace_overhead_pct",
          100.0 * (traced_median_s - replay_median_s) / replay_median_s, "%");
  }

  if (!args.spans_path.empty() && args.trace == 1 &&
      !spans.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 1;
  }

  std::printf(
      "{\"facts\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"trace_tuples\": %zu, \"trace_seconds\": %u, \"nproc\": %u, "
      "\"build_type\": %s, \"telemetry\": %s, \"partition_set\": %s, "
      "\"parallel_fallback_reason\": %s, \"columnar_fallback_reason\": %s, "
      "\"samples\": {\"setups\": %zu, \"untraced_runs\": %zu, "
      "\"traced_runs\": %zu, \"push_calls\": %zu, "
      "\"push_tail_percentile\": %g}}}\n",
      JsonString(w->name).c_str(), args.seed, trace.size(),
      w->trace.duration_sec, std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      streampart::StatsRegistry::kCompiledIn ? "true" : "false",
      JsonString(first.partition_set.ToString()).c_str(),
      JsonString(first.parallel_fallback_reason).c_str(),
      JsonString(first.columnar_fallback_reason).c_str(), setup_s.size(),
      untraced.size(), traced.size(), push_calls,
      HighestSupportedPercentile(push_calls));
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "%s}\n",
      failed == 0 ? "true" : "false", attempted, failed, m.Json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
