#pragma once

/// \file workload.h
/// \brief The benchmark's workloads and the pipeline it drives: the same
/// public calls `streampart_cli --run` makes, timed from the outside.
///
///   setup   1 QueryGraph::AddQuery       (bench/figlib query sets)
///           2 AdviseWorkload
///           3 OptimizeForPartitioning
///           4 ClusterRuntime::Build
///   replay  5 ClusterRuntime::PushSourceBatch, once per 1024-tuple batch
///           6 ClusterRuntime::FinishSources
///           7 ClusterRuntime::MakeLedger + RunLedger::ToJsonl

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/figlib.h"
#include "harness.h"
#include "metrics/report.h"
#include "partition/partition_set.h"
#include "trace/trace_gen.h"

namespace perfbench {

/// \brief One benchmark workload: 4 hosts x 2 partitions, default exec mode.
struct Workload {
  std::string name;
  /// Step 1: catalog + graph with the workload's queries added.
  streampart::bench::BenchSetup (*make_setup)() = nullptr;
  streampart::TraceConfig trace;
  /// Splitter that can hash no column, so the advisor must fall back to the
  /// empty set (round-robin).
  bool splitter_hashes_nothing = false;
  /// ClusterRuntime::set_parallel argument (1 = not called).
  int threads = 1;
  /// FaultPlan text (dist/fault.h); empty = healthy run.
  std::string fault_plan;
  /// Workload whose healthy single-threaded run this one must reproduce
  /// (ledger bytes for threads, answers for faults); empty = none.
  std::string same_as;
};

/// \brief The workload \p name with its trace seeded by \p seed; \p smoke
/// shrinks the trace for tests. nullopt for an unknown name.
std::optional<Workload> FindWorkload(const std::string& name, uint64_t seed,
                                     bool smoke);

/// \brief Generates the workload's trace with PacketTraceGenerator::NextBatch;
/// \p gen_ns receives the generation time.
streampart::TupleBatch GenerateTrace(const Workload& w, int64_t* gen_ns);

/// \brief What one pipeline run measured and produced.
struct PipelineRun {
  // Timings (wall clock unless named cpu).
  int64_t setup_ns = 0;
  int64_t replay_ns = 0;
  int64_t replay_cpu_ns = 0;
  /// Rise of the live heap over steps 5-7 (only when metered).
  int64_t replay_heap_bytes = 0;

  // Plan facts.
  streampart::PartitionSet partition_set;
  uint64_t candidates = 0;
  bool parallel_active = false;
  std::string parallel_fallback_reason;
  std::string columnar_fallback_reason;

  // Results.
  std::map<std::string, streampart::TupleBatch> outputs;
  std::vector<int> dead_hosts;
  std::string ledger_jsonl;
  double agg_cpu_pct = 0;
  double agg_net_tuples_per_s = 0;
  double modeled_cpu_s = 0;  ///< summed host CPU-seconds of the cost model
  uint64_t net_tuples = 0;
  uint64_t net_bytes = 0;
  streampart::RecoverySection recovery;

  // Scheduler registry (parallel runs only).
  uint64_t morsels = 0;
  uint64_t steals = 0;
  double worker_tuple_skew = 0;  ///< max worker tuples / mean
};

/// \brief Runs steps 1-7 once, or only steps 1-4 when \p replay is false.
/// Spans go to \p rec under run id \p run; \p meter_heap measures the
/// replay's live-heap rise.
PipelineRun RunPipeline(const Workload& w, const streampart::TupleBatch& trace,
                        SpanRecorder* rec, int run, bool meter_heap,
                        bool replay = true);

/// \brief Direct timings of single layers on the workload's trace, each the
/// median over repetitions (ns per source tuple unless named otherwise).
struct LayerTimings {
  double route_ns = 0;
  double route_max_over_mean = 0;
  double exec_batch_ns = 0;
  double exec_columnar_ns = 0;
  double transpose_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_tuple = 0;
};

/// \brief Times the layers for about \p budget_s seconds in total.
LayerTimings TimeLayers(const Workload& w, const streampart::TupleBatch& trace,
                        const streampart::PartitionSet& ps, double budget_s);

}  // namespace perfbench
