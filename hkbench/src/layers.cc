#include "hkbench/src/layers.h"

#include <dirent.h>
#include <sched.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/kv/sharded.h"
#include "src/net/memcached.h"

namespace hkb {

using hashkit::Result;
using hashkit::Status;
namespace kv = hashkit::kv;

Result<BenchStore> OpenBenchStore(const std::string& dir, const kv::StoreOptions& per_shard,
                                  size_t nshards, bool traced) {
  BenchStore bs;
  auto factory = [&](size_t shard) -> Result<std::unique_ptr<kv::KvStore>> {
    kv::StoreOptions o = per_shard;
    o.path = dir + "/store.s" + std::to_string(shard);
    o.shards = 0;
    HASHKIT_ASSIGN_OR_RETURN(auto inner, kv::OpenStore(kv::StoreKind::kHashDisk, o));
    bs.shards.push_back(inner.get());
    if (traced) {
      inner = std::make_unique<SpanStore>(std::move(inner), /*top=*/false);
    }
    return inner;
  };
  HASHKIT_ASSIGN_OR_RETURN(bs.store, kv::MakeSharded(factory, nshards));
  if (traced) {
    auto top = std::make_unique<SpanStore>(std::move(bs.store), /*top=*/true);
    bs.top = top.get();
    bs.store = std::move(top);
  }
  return bs;
}

void Census(kv::KvStore* store, const DataSet& data, const VersionModel& model, bool mc_values,
            const std::string& when, RunResult* out) {
  using M = VersionModel;
  std::vector<bool> seen(model.size());
  uint64_t scanned = 0, bad = 0;
  std::string key, raw, problem;
  Status s = store->Scan(&key, &raw, /*first=*/true);
  for (; s.ok(); s = store->Scan(&key, &raw, /*first=*/false)) {
    ++scanned;
    uint64_t id;
    uint32_t version = 0;
    if (!data.ParseKey(key, &id) || (id & kSlotMask) >= model.size()) {
      ++bad;
      problem = problem.empty() ? "unknown key " + key : problem;
      continue;
    }
    std::string_view value = raw;
    if (mc_values) {
      uint32_t flags;
      hashkit::net::mc::DecodeValue(raw, &flags, &value);
    }
    const uint64_t slot = id & kSlotMask;
    const uint64_t state = model.Load(slot);
    const bool dup = seen[slot];
    seen[slot] = true;
    if (dup || M::IsDeleted(state) || KeyId(slot, M::GenOf(state)) != id ||
        !data.CheckValue(id, value, &version) || version != M::VersionOf(state)) {
      ++bad;
      if (problem.empty()) {
        problem = "key " + key + (dup ? " seen twice" : ": version " + std::to_string(version) +
                                                           ", model " + std::to_string(M::VersionOf(state)));
      }
    }
  }
  uint64_t user_bytes;
  const uint64_t live = LiveKeys(data, model, &user_bytes);
  if (s.code() != hashkit::StatusCode::kNotFound) {
    out->Fail(when + " census: scan failed: " + s.ToString());
  } else if (bad != 0 || scanned != live) {
    out->Fail(when + " census: " + std::to_string(scanned) + " keys scanned, " +
              std::to_string(live) + " in the model, " + std::to_string(bad) + " wrong" +
              (problem.empty() ? "" : "; first: " + problem));
  }
}

uint64_t LiveKeys(const DataSet& data, const VersionModel& model, uint64_t* user_bytes) {
  uint64_t live = 0;
  *user_bytes = 0;
  char key[kMaxKeyLen];
  for (size_t slot = 0; slot < model.size(); ++slot) {
    const uint64_t state = model.Load(slot);
    if (!VersionModel::IsDeleted(state)) {
      const uint64_t id = KeyId(slot, VersionModel::GenOf(state));
      ++live;
      *user_bytes += data.KeyInto(id, key) + data.ValueLen(id);
    }
  }
  return live;
}

StoreCounters ReadCounters(const BenchStore& bs) {
  StoreCounters c;
  for (kv::KvStore* shard : bs.shards) {
    kv::StoreStats s;
    shard->Stats(&s);
    c.shard_ops.push_back(s.table.gets + s.table.puts);
    c.sum.MergeFrom(s);
  }
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddEndToEnd(const std::string& workload, const EndToEnd& e, RunResult* out) {
  out->Add("ops_per_s", e.windows->MedianRate(), "ops/s");
  out->Add("op_p50_us", e.windows->MedianQuantile(0.50) / 1000.0, "us");
  out->Add("op_p90_us", e.windows->MedianQuantile(0.90) / 1000.0, "us");
  out->Add("setup_s", e.setup_s, "s");
  out->Add("disk_bytes_per_user_byte", Ratio(e.disk_bytes, e.user_bytes), "ratio");
  out->Add("peak_rss_mib", e.peak_rss_mib, "MiB");
  constexpr double kMiB = 1 << 20;
  std::fprintf(stderr,
               "hkbench: %s: %s, %llu latency samples; ops/s by window: %s; "
               "%llu keys, %.1f MiB of keys and values, %.1f MiB on disk, pool %.1f MiB\n",
               workload.c_str(), e.clients.c_str(),
               static_cast<unsigned long long>(e.windows->samples()), e.windows->Rates().c_str(),
               static_cast<unsigned long long>(e.keys), e.user_bytes / kMiB, e.disk_bytes / kMiB,
               e.pool_bytes / kMiB);
}

// Runs one probe inside a probe span; `n` numbers the probe in its trace id.
template <typename Fn>
double Probe(uint64_t n, Fn fn) {
  const uint64_t start = NowNs();
  const double ns = fn();
  Tracer::RecordDetached(kSpanProbe, n, start, NowNs(), 0);
  return ns;
}

void AddLayerMetrics(const LayerInputs& in, const std::string& trace_out, RunResult* out) {
  const ProbeInputs& p = in.probe;
  const double decode_ns = Probe(1, [&] { return ProbeBinaryDecodeNs(p); });
  const double parse_ns = Probe(2, [&] { return ProbeTextParseNs(p); });
  const double hit_1t_ns = Probe(3, [&] { return ProbePoolHitNs(p, 1); });
  const double hit_nt_ns = Probe(4, [&] { return ProbePoolHitNs(p, p.threads); });
  const double miss_ns = Probe(5, [&] { return ProbePoolMissNs(p); });
  const double hash_ns = Probe(6, [&] { return ProbeHashNsPerKey(p); });
  const double hist_ns = Probe(7, [&] { return ProbeHistogramRecordNs(p); });
  uint64_t dropped = 0;
  const std::vector<Span> spans = Tracer::Collect(&dropped);
  if (!trace_out.empty() && !WriteSpans(trace_out, spans)) {
    std::fprintf(stderr, "hkbench: could not write spans to %s\n", trace_out.c_str());
  }

  const auto& a = in.after.sum;
  const auto& b = in.before.sum;
  const double ops = static_cast<double>(in.client_ops);
  const SpanSummary sp = Summarize(spans);

  // net
  out->Add("net.self_us_per_op", Ratio(sp.net_self_ns, sp.net_requests) / 1000.0, "us");
  out->Add("net.ops_per_store_call", Ratio(in.net_batched_ops, in.net_batches), "ops");
  out->Add("net.bytes_per_op", Ratio(in.net_bytes, in.net_requests), "bytes");
  out->Add("net.binary_decode_ns", decode_ns, "ns");
  out->Add("net.text_parse_ns", parse_ns, "ns");
  out->Add("net.ops_shed", static_cast<double>(in.net_shed), "count");

  // kv
  out->Add("kv.call_ns_per_op", Ratio(sp.kv_ns, sp.kv_ops), "ns");
  out->Add("kv.self_ns_per_op", Ratio(sp.kv_self_ns, sp.kv_ops), "ns");
  uint64_t max_shard = 0, sum_shard = 0;
  for (size_t i = 0; i < in.after.shard_ops.size(); ++i) {
    const uint64_t d = in.after.shard_ops[i] - in.before.shard_ops[i];
    max_shard = std::max(max_shard, d);
    sum_shard += d;
  }
  out->Add("kv.shard_imbalance",
           Ratio(static_cast<double>(max_shard) * in.after.shard_ops.size(), sum_shard), "ratio");

  // core
  const double gets = static_cast<double>(a.table.gets - b.table.gets);
  const double puts = static_cast<double>(a.table.puts - b.table.puts);
  const double cand = static_cast<double>(a.table.tag_filter_candidates - b.table.tag_filter_candidates);
  out->Add("core.get_ns", Ratio(sp.shard_get_ns, sp.shard_get_ops), "ns");
  out->Add("core.put_ns", Ratio(sp.shard_put_ns, sp.shard_put_ops), "ns");
  out->Add("core.entries_compared_per_get", Ratio(cand, gets + puts), "entries");
  out->Add("core.tag_false_hit_ratio",
           Ratio(static_cast<double>(a.table.tag_filter_false_hits - b.table.tag_filter_false_hits), cand),
           "ratio");
  // Whole run, preload included: splits are what set-up pays for.
  out->Add("core.splits_per_kput", Ratio(1000.0 * a.table.splits, a.table.puts), "splits");
  out->Add("core.ovfl_pages_per_kkey",
           Ratio(1000.0 * (a.table.ovfl_pages_alloced - a.table.ovfl_pages_freed), in.live_keys),
           "pages");
  out->Add("core.big_pairs", static_cast<double>(a.table.big_pairs_stored), "count");

  // pagefile
  const double hits = static_cast<double>(a.pool.hits - b.pool.hits);
  const double misses = static_cast<double>(a.pool.misses - b.pool.misses);
  out->Add("pagefile.hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("pagefile.misses_per_op", Ratio(misses, ops), "misses");
  out->Add("pagefile.evictions_per_op", Ratio(static_cast<double>(a.pool.evictions - b.pool.evictions), ops),
           "evictions");
  out->Add("pagefile.writebacks_per_op",
           Ratio(static_cast<double>(a.pool.dirty_writebacks - b.pool.dirty_writebacks), ops), "writes");
  out->Add("pagefile.hit_ns_1t", hit_1t_ns, "ns");
  out->Add("pagefile.hit_ns_nt", hit_nt_ns, "ns");
  out->Add("pagefile.miss_ns", miss_ns, "ns");

  // wal
  const double commits = static_cast<double>(a.wal.commits - b.wal.commits);
  out->Add("wal.bytes_per_put", Ratio(static_cast<double>(a.wal.bytes - b.wal.bytes), puts), "bytes");
  out->Add("wal.records_per_commit", Ratio(static_cast<double>(a.wal.records - b.wal.records), commits),
           "records");
  out->Add("wal.commits", commits, "count");
  out->Add("wal.checkpoints", static_cast<double>(a.wal.checkpoints - b.wal.checkpoints), "count");
  out->Add("io.write_bytes_per_user_byte",
           in.embedded ? Ratio(static_cast<double>(in.wchar), static_cast<double>(in.user_bytes_written))
                       : 0.0,
           "ratio");

  // util
  out->Add("util.hash_ns_per_key", hash_ns, "ns");
  out->Add("util.histogram_record_ns_nt", hist_ns, "ns");

  // trace
  out->Add("trace.overhead_ratio", Ratio(in.traced_ops_per_s, in.untraced_ops_per_s), "ratio");
  out->Add("trace.spans", static_cast<double>(sp.spans), "count");
  out->Add("trace.spans_dropped", static_cast<double>(dropped), "count");
}

void RunSlices(int seconds, double* untraced_s, double* traced_s) {
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds) * 1'000'000'000ull;
  *untraced_s = *traced_s = 0;
  bool traced = false;
  uint64_t t = NowNs();
  while (t < end) {
    Tracer::on.store(traced, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now = NowNs();
    (traced ? *traced_s : *untraced_s) += static_cast<double>(now - t) * 1e-9;
    t = now;
    traced = !traced;
  }
  Tracer::on.store(false, std::memory_order_relaxed);
}

// --- process introspection --------------------------------------------------

double PeakRssMiB() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0;
}

uint64_t ProcWriteChars() {
  std::ifstream f("/proc/self/io");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("wchar:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return 0;
  }
  while (dirent* e = readdir(d)) {
    struct stat st;
    const std::string path = dir + "/" + e->d_name;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  closedir(d);
  return total;
}

}  // namespace hkb
