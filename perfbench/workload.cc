#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "heap_meter.h"

#include "dist/cluster_runtime.h"
#include "dist/partitioner.h"
#include "exec/column_batch.h"
#include "exec/local_engine.h"
#include "optimizer/optimizer.h"
#include "partition/advisor.h"
#include "types/serde.h"

namespace perfbench {

using namespace streampart;

namespace {

constexpr int kHosts = 4;
constexpr int kPartitionsPerHost = 2;
constexpr const char* kSource = "TCP";

[[noreturn]] void Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what, r.status());
  return std::move(*r);
}

ClusterConfig Cluster() {
  ClusterConfig cluster;
  cluster.num_hosts = kHosts;
  cluster.partitions_per_host = kPartitionsPerHost;
  return cluster;
}

// The smoke size: 10 seconds, long enough for a checkpoint before the kill,
// at a tenth of the rate.
TraceConfig Shrink(TraceConfig tc) {
  tc.duration_sec = 10;
  tc.packets_per_sec /= 10;
  return tc;
}

void ReadScheduler(const StatsRegistry& reg, PipelineRun* out) {
  std::vector<uint64_t> worker_tuples;
  reg.ForEachScope([&](const StatsScope& scope) {
    scope.ForEach([&](const std::string& name, const StatsScope::Entry& e) {
      if (name == "sched_morsels") out->morsels += e.counter.value();
      if (name == "worker_steals") out->steals += e.counter.value();
      if (name == "worker_tuples") worker_tuples.push_back(e.counter.value());
    });
  });
  uint64_t total = 0, most = 0;
  for (uint64_t t : worker_tuples) {
    total += t;
    most = std::max(most, t);
  }
  if (total > 0) {
    out->worker_tuple_skew = static_cast<double>(most) *
                             static_cast<double>(worker_tuples.size()) /
                             static_cast<double>(total);
  }
}

/// Median ns per tuple of \p fn over repetitions filling \p budget_s
/// (at least three).
template <typename Fn>
double MedianNsPerTuple(double budget_s, size_t tuples, Fn fn) {
  std::vector<double> per_tuple;
  int64_t deadline = WallNs() + static_cast<int64_t>(budget_s * 1e9);
  while (per_tuple.size() < 3 || WallNs() < deadline) {
    int64_t t0 = WallNs();
    fn();
    per_tuple.push_back(static_cast<double>(WallNs() - t0) /
                        static_cast<double>(tuples));
  }
  return Median(per_tuple);
}

}  // namespace

std::optional<Workload> FindWorkload(const std::string& name, uint64_t seed,
                                     bool smoke) {
  Workload w;
  w.name = name;
  if (name == "flows_hash" || name == "flows_hash_mt" ||
      name == "flows_recovery") {
    // §6.1 suspicious flows; the advisor picks the flow key.
    w.make_setup = bench::MakeSimpleAggSetup;
    w.trace = bench::SimpleAggTrace();
    // The same 600k packets as figlib's 30 s, over twice the epochs (see
    // the renewal below).
    w.trace.duration_sec = 60;
    w.trace.packets_per_sec = 10000;
  } else if (name == "qset_roundrobin") {
    // §6.2 query set behind a splitter that can hash nothing; twice
    // figlib's epochs (see the renewal below).
    w.make_setup = bench::MakeQuerySetSetup;
    w.trace = bench::QuerySetTrace();
    w.trace.duration_sec = 40;
    w.splitter_hashes_nothing = true;
  } else {
    return std::nullopt;
  }
  // Redraw the flow table every second. The cost of both query sets hinges
  // on the few heaviest flows: where they hash (the aggregator host's load)
  // and whether they are web flows (the self-join is quadratic in packets
  // per flow). With figlib's 5% renewal that is about one draw per trace,
  // and agg_cpu_pct swung by a fifth, qset_roundrobin's replay time by half,
  // between seeds.
  w.trace.flow_renewal = 3.0;
  if (smoke) w.trace = Shrink(w.trace);
  w.trace.seed = seed;
  if (name == "flows_hash_mt") {
    w.threads = 3;  // plus the thread that pushes
    w.same_as = "flows_hash";
  }
  if (name == "flows_recovery") {
    // Lossless plan: checkpoint every 4 epochs, kill a leaf host mid-run.
    w.fault_plan = "ckpt 4\nkill host=1 epoch=" +
                   std::to_string(w.trace.duration_sec / 2) + "\n";
    w.same_as = "flows_hash";
  }
  return w;
}

TupleBatch GenerateTrace(const Workload& w, int64_t* gen_ns) {
  PacketTraceGenerator gen(w.trace);
  TupleBatch trace;
  trace.reserve(gen.total_packets());
  TupleBatch batch;
  int64_t t0 = WallNs();
  while (gen.NextBatch(&batch, kDefaultSourceBatch) > 0) {
    for (Tuple& t : batch) trace.push_back(std::move(t));
  }
  *gen_ns = WallNs() - t0;
  return trace;
}

PipelineRun RunPipeline(const Workload& w, const TupleBatch& trace,
                        SpanRecorder* rec, int run, bool meter_heap,
                        bool replay) {
  PipelineRun out;
  CpuCostParams cpu = bench::CalibratedCpu();
  FaultPlan faults;
  if (!w.fault_plan.empty()) {
    faults = Must(FaultPlan::Parse(w.fault_plan), "fault plan");
  }
  ClusterConfig cluster = Cluster();
  int root = rec->Begin("run", -1, run);

  // --- setup: steps 1-4 ---------------------------------------------------
  int64_t setup_start = WallNs();
  int setup_span = rec->Begin("setup", root, run);
  bench::BenchSetup setup;
  {
    ScopedSpan s(rec, "add_query", setup_span, run);
    setup = w.make_setup();
  }
  WorkloadAdvice advice;
  {
    ScopedSpan s(rec, "advise", setup_span, run);
    AdvisorOptions aopts;
    if (w.splitter_hashes_nothing) {
      aopts.hardware = HardwareCapability(std::set<std::string>{});
    }
    advice = Must(AdviseWorkload(*setup.graph, aopts), "AdviseWorkload");
  }
  std::optional<DistPlan> plan;
  {
    ScopedSpan s(rec, "optimize", setup_span, run);
    plan = Must(OptimizeForPartitioning(*setup.graph, cluster,
                                        advice.recommended, OptimizerOptions()),
                "OptimizeForPartitioning");
  }
  ClusterRuntime runtime(setup.graph.get(), &*plan, cluster);
  {
    ScopedSpan s(rec, "build", setup_span, run);
    if (w.threads > 1) runtime.set_parallel(w.threads);
    runtime.set_cost_params(cpu);
    if (faults.armed()) runtime.set_fault_plan(faults);
    Status st = runtime.Build(advice.recommended);
    if (!st.ok()) Fail("ClusterRuntime::Build", st);
  }
  rec->End(setup_span);
  out.setup_ns = WallNs() - setup_start;
  if (!replay) {
    rec->End(root);
    return out;
  }

  // --- replay: steps 5-7 --------------------------------------------------
  if (meter_heap) HeapMeterStart();
  int64_t replay_start = WallNs();
  int64_t cpu_start = ProcessCpuNs();
  int replay_span = rec->Begin("replay", root, run);
  TupleSpan all(trace);
  for (size_t off = 0; off < all.size(); off += kDefaultSourceBatch) {
    ScopedSpan s(rec, "push", replay_span, run);
    runtime.PushSourceBatch(
        kSource,
        all.subspan(off, std::min(kDefaultSourceBatch, all.size() - off)));
  }
  {
    ScopedSpan s(rec, "finish", replay_span, run);
    runtime.FinishSources();
  }
  std::optional<RunLedger> ledger;
  {
    ScopedSpan s(rec, "ledger", replay_span, run);
    ledger.emplace(runtime.MakeLedger(
        cpu, static_cast<double>(w.trace.duration_sec)));
    out.ledger_jsonl = ledger->ToJsonl();
  }
  rec->End(replay_span);
  out.replay_cpu_ns = ProcessCpuNs() - cpu_start;
  out.replay_ns = WallNs() - replay_start;
  if (meter_heap) out.replay_heap_bytes = HeapMeterStop();
  rec->End(root);

  // --- untimed: facts and results -----------------------------------------
  out.partition_set = advice.recommended;
  out.candidates = advice.candidates_explored;
  out.parallel_active = runtime.parallel_active();
  out.parallel_fallback_reason = runtime.parallel_fallback_reason();
  out.columnar_fallback_reason = runtime.columnar_fallback_reason();
  out.outputs = runtime.result().outputs;
  out.dead_hosts = runtime.result().dead_hosts;
  const std::vector<LedgerHostRow>& hosts = ledger->hosts();
  out.agg_cpu_pct = hosts[cluster.aggregator_host].cpu_load_pct;
  out.agg_net_tuples_per_s =
      hosts[cluster.aggregator_host].net_tuples_in_per_sec;
  for (const LedgerHostRow& h : hosts) {
    out.modeled_cpu_s += h.cpu_seconds;
    out.net_tuples += h.metrics.net_tuples_in;
    out.net_bytes += h.metrics.net_bytes_in;
  }
  out.recovery = ledger->recovery();
  ReadScheduler(runtime.scheduler_registry(), &out);
  return out;
}

LayerTimings TimeLayers(const Workload& w, const TupleBatch& trace,
                        const PartitionSet& ps, double budget_s) {
  LayerTimings lt;
  const size_t n = trace.size();
  TupleSpan all(trace);
  auto chunks = [&](auto fn) {
    for (size_t off = 0; off < n; off += kDefaultSourceBatch) {
      fn(all.subspan(off, std::min(kDefaultSourceBatch, n - off)));
    }
  };
  double slice = budget_s / 6;
  bench::BenchSetup setup = w.make_setup();
  SchemaPtr schema = Must(setup.catalog->GetStream(kSource), "TCP schema");

  // partitioner: the route every source tuple takes.
  std::vector<uint64_t> counts(kHosts * kPartitionsPerHost);
  lt.route_ns = MedianNsPerTuple(slice, n, [&] {
    auto part = Must(MakePartitioner(ps, schema, kHosts * kPartitionsPerHost),
                     "MakePartitioner");
    std::fill(counts.begin(), counts.end(), 0);
    for (const Tuple& t : trace) ++counts[part->PartitionOf(t)];
  });
  uint64_t most = *std::max_element(counts.begin(), counts.end());
  lt.route_max_over_mean = static_cast<double>(most) *
                           static_cast<double>(counts.size()) /
                           static_cast<double>(n);

  // exec: the centralized engine over the workload's graph.
  auto engine_run = [&](bool columnar) {
    LocalEngine engine(setup.graph.get());
    Status st = engine.Build();
    if (!st.ok()) Fail("LocalEngine::Build", st);
    chunks([&](TupleSpan b) {
      if (columnar) {
        engine.PushSourceColumns(kSource, b);
      } else {
        engine.PushSourceBatch(kSource, b);
      }
    });
    engine.FinishSources();
  };
  lt.exec_batch_ns = MedianNsPerTuple(slice, n, [&] { engine_run(false); });
  lt.exec_columnar_ns = MedianNsPerTuple(slice, n, [&] { engine_run(true); });
  ColumnBatch columns;
  lt.transpose_ns = MedianNsPerTuple(
      slice, n, [&] { chunks([&](TupleSpan b) { columns.FromTuples(b); }); });

  // serde: the batch wire format of cross-host edges.
  std::vector<std::string> wire;
  chunks([&](TupleSpan b) {
    wire.emplace_back();
    EncodeBatch(b, &wire.back());
  });
  size_t bytes = 0;
  for (const std::string& s : wire) bytes += s.size();
  lt.bytes_per_tuple = static_cast<double>(bytes) / static_cast<double>(n);
  std::string buf;
  lt.encode_ns = MedianNsPerTuple(slice, n, [&] {
    chunks([&](TupleSpan b) {
      buf.clear();
      EncodeBatch(b, &buf);
    });
  });
  lt.decode_ns = MedianNsPerTuple(slice, n, [&] {
    for (const std::string& s : wire) {
      auto decoded = DecodeBatch(s);
      if (!decoded.ok()) Fail("DecodeBatch", decoded.status());
    }
  });
  return lt;
}

}  // namespace perfbench
