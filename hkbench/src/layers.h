// hkbench: opening the store under test (optionally wrapped in timing
// decorators) and turning counters, spans and probes into the per-layer
// metrics of the traced run.

#ifndef HKBENCH_SRC_LAYERS_H_
#define HKBENCH_SRC_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "hkbench/src/common.h"
#include "hkbench/src/probes.h"
#include "hkbench/src/trace.h"
#include "src/kv/kv_store.h"

namespace hkb {

// A ShardedStore of hash_disk tables built through kv::MakeSharded.  With
// `traced`, each shard and the whole store sit behind a SpanStore.
struct BenchStore {
  std::unique_ptr<hashkit::kv::KvStore> store;
  std::vector<hashkit::kv::KvStore*> shards;  // borrowed from `store`
  SpanStore* top = nullptr;                   // set when traced
};

hashkit::Result<BenchStore> OpenBenchStore(const std::string& dir,
                                           const hashkit::kv::StoreOptions& per_shard,
                                           size_t nshards, bool traced);

// Scans the whole store and compares it with the model key for key: every
// slot the model holds appears once, at its generation and version, and no
// other key does.  `mc_values`: the values carry the memcached path's
// flags prefix.  Failures go to `out`, prefixed with `when`.
void Census(hashkit::kv::KvStore* store, const DataSet& data, const VersionModel& model,
            bool mc_values, const std::string& when, RunResult* out);
// Keys the model holds, and their key and value bytes in *user_bytes.
uint64_t LiveKeys(const DataSet& data, const VersionModel& model, uint64_t* user_bytes);

// Counters of every shard, summed, plus each shard's table lookups.
struct StoreCounters {
  hashkit::kv::StoreStats sum;
  std::vector<uint64_t> shard_ops;
};
StoreCounters ReadCounters(const BenchStore& bs);

// Everything the per-layer metrics are computed from.
struct LayerInputs {
  StoreCounters before, after;  // around the timed phase
  uint64_t client_ops = 0;      // operations in the timed phase
  uint64_t live_keys = 0;
  uint64_t user_bytes_written = 0;  // key+value bytes of timed-phase puts
  uint64_t wchar = 0;               // /proc/self/io wchar delta (embedded only)
  bool embedded = true;
  double traced_ops_per_s = 0, untraced_ops_per_s = 0;
  // Server workloads: deltas of the STATS server.* counters.
  uint64_t net_batches = 0, net_batched_ops = 0, net_bytes = 0, net_requests = 0, net_shed = 0;
  ProbeInputs probe;
};

// What the untraced run reports: the six end-to-end metrics.
struct EndToEnd {
  const OpWindows* windows = nullptr;
  double setup_s = 0;
  double peak_rss_mib = 0;
  uint64_t keys = 0;        // live keys at the end
  uint64_t user_bytes = 0;  // their keys and values
  uint64_t disk_bytes = 0;  // the store's files after the final Sync
  uint64_t pool_bytes = 0;
  std::string clients;      // e.g. "4 threads"
};
// Appends the end-to-end metrics, in BENCHMARK.json order, and prints a
// one-line summary of the run to stderr.
void AddEndToEnd(const std::string& workload, const EndToEnd& e, RunResult* out);

// Runs the probes, collects every span of the run (writing them to
// `trace_out` unless it is empty) and appends every per-layer metric, in
// BENCHMARK.json order.
void AddLayerMetrics(const LayerInputs& in, const std::string& trace_out, RunResult* out);

// The traced run's timed phase: alternates untraced and traced slices of
// 100 ms until `seconds` passed, keeping each kind's total time.
void RunSlices(int seconds, double* untraced_s, double* traced_s);

}  // namespace hkb

#endif  // HKBENCH_SRC_LAYERS_H_
