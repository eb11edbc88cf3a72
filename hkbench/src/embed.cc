// hkbench: the embedded workloads — the library linked into a program and
// called in-process from nproc closed-loop threads.
//
//   embed-read-hot    95% GET / 5% overwrite, Zipf-skewed keys, data set
//                     resident in the pool, durability none.
//   embed-write-spill 50% GET / 30% overwrite / 20% replace (delete a key,
//                     insert a new one in its place), uniform keys, data
//                     set several times the pool, 3% of values larger than
//                     a page, durability async; ends with a simulated crash
//                     and a reopen through WAL recovery.
//
// The data set is a fixed number of slots, each holding one key.  A replace
// moves a slot to its next generation's key, so new keys keep arriving while
// the data set keeps its size: what the store holds at the end, on disk and
// in memory, does not depend on how many operations the run completed.
// Each thread writes only the slots it owns (slot i belongs to thread
// i % threads), so a read of an own slot must return exactly the last
// version written and any other read must be a version the model allows.

#include <atomic>
#include <cstdio>
#include <thread>

#include "hkbench/src/common.h"
#include "hkbench/src/layers.h"
#include "hkbench/src/trace.h"

namespace hkb {

using hashkit::Status;
namespace kv = hashkit::kv;

namespace {

struct EmbedSpec {
  size_t shards = 8;
  size_t keys = 0;          // slots, each preloaded with its first key
  uint64_t pool_bytes = 0;  // over all shards
  hashkit::Durability durability = hashkit::Durability::kNone;
  double get_share = 0;
  double overwrite_share = 0;  // the rest replaces keys
  bool skewed = false;
  ValueShape shape;
};

EmbedSpec SpecFor(const std::string& workload) {
  EmbedSpec s;
  if (workload == "embed-read-hot") {
    s.keys = 250'000;
    s.pool_bytes = 128ull << 20;
    s.get_share = 0.95;
    s.overwrite_share = 0.05;
    s.skewed = true;
  } else {
    s.keys = 100'000;
    s.pool_bytes = 4ull << 20;
    s.durability = hashkit::Durability::kAsync;
    s.get_share = 0.50;
    s.overwrite_share = 0.30;
    s.shape.small_max = 240;
    s.shape.big_share = 0.03;
    s.shape.big_min = 1200;  // the store's pages are 1 KiB
    s.shape.big_max = 4000;
  }
  return s;
}

// Per-thread state; only its owner touches it until the threads joined.
struct Worker {
  OpWindows windows;
  uint64_t ops = 0;
  uint64_t ops_traced = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t user_bytes_written = 0;
  std::string problem;  // first wrong read, for stderr
};

class EmbeddedRun {
 public:
  EmbeddedRun(const Config& cfg, EmbedSpec spec)
      : cfg_(cfg),
        spec_(spec),
        data_(cfg.seed, spec.shape),
        model_(spec.keys),
        threads_(cfg.threads > 0 ? cfg.threads : CpuCount()) {}

  int Run(RunResult* out);

 private:
  int Open(bool truncate);
  bool Preload();
  void Loop(int t);
  // Checks one GET of slot `slot`, whose state was `before` when the key
  // was chosen and `after` once the call returned.
  void CheckGet(Worker& w, bool own, uint64_t slot, uint64_t before, uint64_t after,
                const Status& s, std::string_view got);

  const Config& cfg_;
  const EmbedSpec spec_;
  const DataSet data_;
  VersionModel model_;
  const int threads_;
  BenchStore bs_;
  std::vector<Worker> workers_;
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
};

int EmbeddedRun::Open(bool truncate) {
  kv::StoreOptions o;
  o.truncate = truncate;
  o.cachesize = spec_.pool_bytes / spec_.shards;
  o.nelem = static_cast<uint32_t>(spec_.keys / spec_.shards);
  o.durability = spec_.durability;
  auto opened = OpenBenchStore(cfg_.dir, o, spec_.shards, cfg_.trace);
  if (!opened.ok()) {
    std::fprintf(stderr, "hkbench: open store: %s\n", opened.status().ToString().c_str());
    return kExitSetup;
  }
  bs_ = std::move(opened.value());
  return kExitOk;
}

bool EmbeddedRun::Preload() {
  // Every thread loads the slots it owns, through the public Put.
  std::atomic<bool> ok{true};
  std::vector<std::thread> loaders;
  for (int t = 0; t < threads_; ++t) {
    loaders.emplace_back([&, t] {
      char key[kMaxKeyLen];
      std::string value;
      for (uint64_t i = static_cast<uint64_t>(t); i < spec_.keys; i += static_cast<uint64_t>(threads_)) {
        const size_t kn = data_.KeyInto(i, key);
        data_.MakeValue(i, 1, &value);
        const Status s = bs_.store->Put(std::string_view(key, kn), value, /*overwrite=*/false);
        if (!s.ok()) {
          std::fprintf(stderr, "hkbench: preload put: %s\n", s.ToString().c_str());
          ok = false;
          return;
        }
        model_.Store(i, VersionModel::State(0, 1));
      }
    });
  }
  for (auto& th : loaders) {
    th.join();
  }
  return ok;
}

void EmbeddedRun::CheckGet(Worker& w, bool own, uint64_t slot, uint64_t before, uint64_t after,
                           const Status& s, std::string_view got) {
  using M = VersionModel;
  const uint64_t id = KeyId(slot, M::GenOf(before));
  uint32_t version = 0;
  bool right;
  if (s.ok()) {
    const bool intact = data_.CheckValue(id, got, &version);
    // An own slot does not change under its owner; another thread may have
    // overwritten, deleted or replaced the key since it was chosen.
    right = intact && (own ? !M::IsDeleted(before) && version == M::VersionOf(before)
                           : M::GenOf(after) != M::GenOf(before) || version <= M::VersionOf(after));
  } else if (s.code() == hashkit::StatusCode::kNotFound) {
    right = own ? M::IsDeleted(before) : M::GenOf(after) != M::GenOf(before) || M::IsDeleted(after);
  } else {
    ++w.failed;
    return;
  }
  if (!right && ++w.wrong == 1) {
    w.problem = "GET " + data_.Key(id) + ": " +
                (s.ok() ? "version " + std::to_string(version) : std::string("not found")) +
                ", model " + std::to_string(M::VersionOf(after)) +
                (M::IsDeleted(after) ? " (deleted)" : "");
  }
}

void EmbeddedRun::Loop(int t) {
  using M = VersionModel;
  // One thread per CPU, each kept on its own, so the kernel's placement
  // cannot differ between runs.
  const std::vector<int> cpus = AllowedCpus();
  if (static_cast<size_t>(threads_) <= cpus.size()) {
    PinThread({cpus[static_cast<size_t>(t)]});
  }
  Worker& w = workers_[t];
  Rng rng(cfg_.seed * 0x100 + static_cast<uint64_t>(t) + 7);
  const uint64_t own_keys = (spec_.keys - static_cast<uint64_t>(t) + threads_ - 1) / threads_;
  const Zipf zipf_all(spec_.skewed ? spec_.keys : 1);
  const Zipf zipf_own(spec_.skewed ? own_keys : 1);
  kv::KvStore* store = bs_.store.get();
  char key[kMaxKeyLen];
  std::string value;
  std::string got;
  uint64_t trace_seq = 0;
  bool traced_slice = false;
  // Times one call of the program as the caller sees it.
  auto timed = [&](uint8_t kind, auto&& call) {
    const bool traced =
        traced_slice &&
        Tracer::BeginRoot(kSpanClientOp, (uint64_t{static_cast<uint32_t>(t)} << 40) | ++trace_seq);
    const uint64_t t0 = NowNs();
    const Status s = call();
    const uint64_t t1 = NowNs();
    if (traced) {
      Tracer::End(1, kind);
    }
    w.windows.Record(t1, t1 - t0);
    ++(traced_slice ? w.ops_traced : w.ops);
    return s;
  };
  while (!go_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    traced_slice = Tracer::on.load(std::memory_order_relaxed);
    const double u = rng.Unit();
    if (u < spec_.get_share) {
      const uint64_t slot = spec_.skewed ? zipf_all.Next(rng) : rng.Below(spec_.keys);
      const uint64_t before = model_.Load(slot);
      const std::string_view k(key, data_.KeyInto(KeyId(slot, M::GenOf(before)), key));
      const Status s = timed(kKindGet, [&] { return store->Get(k, &got); });
      CheckGet(w, slot % static_cast<uint64_t>(threads_) == static_cast<uint64_t>(t), slot, before,
               model_.Load(slot), s, got);
      continue;
    }
    const uint64_t pick = spec_.skewed ? zipf_own.Next(rng) : rng.Below(own_keys);
    const uint64_t slot = static_cast<uint64_t>(t) + static_cast<uint64_t>(threads_) * pick;
    const uint64_t state = model_.Load(slot);
    const uint32_t gen = M::GenOf(state);
    if (M::IsDeleted(state)) {
      continue;  // a replace whose insert failed emptied the slot
    }
    if (u < spec_.get_share + spec_.overwrite_share) {
      const uint32_t version = M::VersionOf(state) + 1;
      const uint64_t id = KeyId(slot, gen);
      const std::string_view k(key, data_.KeyInto(id, key));
      data_.MakeValue(id, version, &value);
      model_.Store(slot, M::State(gen, version));
      const Status s = timed(kKindPut, [&] { return store->Put(k, value, /*overwrite=*/true); });
      if (s.ok()) {
        w.user_bytes_written += k.size() + value.size();
      } else {
        ++w.failed;
        model_.Store(slot, state);  // the write did not happen
      }
      continue;
    }
    // Replace: delete the slot's key, then insert the next generation's.
    std::string_view k(key, data_.KeyInto(KeyId(slot, gen), key));
    model_.Store(slot, state | M::kDeleted);
    Status s = timed(kKindOther, [&] { return store->Delete(k); });
    if (!s.ok()) {
      ++w.failed;
      model_.Store(slot, state);
      continue;
    }
    const uint64_t id = KeyId(slot, gen + 1);
    k = std::string_view(key, data_.KeyInto(id, key));
    data_.MakeValue(id, 1, &value);
    s = timed(kKindPut, [&] { return store->Put(k, value, /*overwrite=*/false); });
    if (s.ok()) {
      w.user_bytes_written += k.size() + value.size();
      model_.Store(slot, M::State(gen + 1, 1));
    } else {
      ++w.failed;
    }
  }
}

int EmbeddedRun::Run(RunResult* out) {
  const uint64_t main_start = NowNs();
  if (int rc = Open(/*truncate=*/true); rc != kExitOk) {
    return rc;
  }
  if (!Preload()) {
    return kExitSetup;
  }
  workers_.resize(threads_);
  const uint64_t setup_end = NowNs();
  const double setup_s =
      static_cast<double>(setup_end - (cfg_.spawn_ns != 0 ? cfg_.spawn_ns : main_start)) * 1e-9;

  std::vector<std::thread> pool;
  for (int t = 0; t < threads_; ++t) {
    pool.emplace_back([this, t] { Loop(t); });
  }
  const StoreCounters before = ReadCounters(bs_);
  const uint64_t wchar0 = ProcWriteChars();
  const uint64_t t0 = NowNs();
  for (Worker& w : workers_) {
    w.windows.Start(t0, cfg_.seconds);
  }
  go_.store(true, std::memory_order_release);
  double untraced_s = 0, traced_s = 0;
  if (cfg_.trace) {
    RunSlices(cfg_.seconds, &untraced_s, &traced_s);
  } else {
    std::this_thread::sleep_for(std::chrono::seconds(cfg_.seconds));
  }
  stop_.store(true, std::memory_order_relaxed);
  for (auto& th : pool) {
    th.join();
  }
  const uint64_t wchar = ProcWriteChars() - wchar0;
  const StoreCounters after = ReadCounters(bs_);

  OpWindows windows;
  uint64_t ops = 0, ops_traced = 0, wrong = 0, user_bytes = 0;
  for (const Worker& w : workers_) {
    windows.Merge(w.windows);
    ops += w.ops;
    ops_traced += w.ops_traced;
    out->failed += w.failed;
    wrong += w.wrong;
    user_bytes += w.user_bytes_written;
    if (!w.problem.empty()) {
      out->Fail("oracle: " + w.problem);
    }
  }
  out->attempted = ops + ops_traced;
  if (wrong != 0) {
    out->Fail("oracle: " + std::to_string(wrong) + " reads returned a wrong value");
  }

  // The workload's premise.
  const uint64_t misses = after.sum.pool.misses - before.sum.pool.misses;
  const uint64_t evictions = after.sum.pool.evictions - before.sum.pool.evictions;
  if (spec_.durability == hashkit::Durability::kNone && (misses != 0 || evictions != 0)) {
    out->Fail("premise: the data set should stay resident, but the timed phase saw " +
              std::to_string(misses) + " pool misses and " + std::to_string(evictions) +
              " evictions");
  }
  if (spec_.durability != hashkit::Durability::kNone && (misses == 0 || evictions == 0)) {
    out->Fail("premise: the data set should spill the pool, but the timed phase saw " +
              std::to_string(misses) + " misses and " + std::to_string(evictions) + " evictions");
  }

  // Checker self-test: change one key behind the model's back.
  const uint64_t id0 = KeyId(0, VersionModel::GenOf(model_.Load(0)));
  if (cfg_.corrupt == "delete") {
    bs_.store->Delete(data_.Key(id0));
  } else if (cfg_.corrupt == "overwrite") {
    std::string v;
    data_.MakeValue(id0, model_.Version(0) + 1, &v);
    bs_.store->Put(data_.Key(id0), v, true);
  }
  Census(bs_.store.get(), data_, model_, false, "end of run", out);
  const double peak_rss = PeakRssMiB();

  if (spec_.durability != hashkit::Durability::kNone) {
    // Simulated crash: drop the store without Sync or close (its files keep
    // exactly what a killed process would leave), then reopen through WAL
    // recovery and check every acknowledged write survived.
    (void)bs_.store.release();
    if (Open(/*truncate=*/false) != kExitOk) {
      out->Fail("reopen after crash failed");
    } else {
      Census(bs_.store.get(), data_, model_, false, "after crash and WAL recovery", out);
    }
  }
  if (bs_.store != nullptr) {
    const Status synced = bs_.store->Sync();
    if (!synced.ok()) {
      out->Fail("final Sync: " + synced.ToString());
    }
  }
  if (!cfg_.trace) {
    EndToEnd e;
    e.windows = &windows;
    e.setup_s = setup_s;
    e.peak_rss_mib = peak_rss;
    e.keys = LiveKeys(data_, model_, &e.user_bytes);
    e.disk_bytes = DirBytes(cfg_.dir);
    e.pool_bytes = spec_.pool_bytes;
    e.clients = std::to_string(threads_) + " threads";
    AddEndToEnd(cfg_.workload, e, out);
    return kExitOk;
  }

  LayerInputs in;
  in.before = before;
  in.after = after;
  in.client_ops = ops + ops_traced;
  uint64_t live_bytes;
  in.live_keys = LiveKeys(data_, model_, &live_bytes);
  in.user_bytes_written = user_bytes;
  in.wchar = wchar;
  in.embedded = true;
  in.untraced_ops_per_s = untraced_s > 0 ? static_cast<double>(ops) / untraced_s : 0;
  in.traced_ops_per_s = traced_s > 0 ? static_cast<double>(ops_traced) / traced_s : 0;
  in.probe.dir = cfg_.dir;
  in.probe.threads = threads_;
  for (uint64_t i = 0; i < 4096 && i < spec_.keys; ++i) {
    in.probe.keys.push_back(data_.Key(i));
    in.probe.values.emplace_back();
    data_.MakeValue(i, 1, &in.probe.values.back());
  }
  AddLayerMetrics(in, cfg_.trace_out, out);
  return kExitOk;
}

}  // namespace

int RunEmbedded(const Config& cfg, RunResult* out) {
  EmbeddedRun run(cfg, SpecFor(cfg.workload));
  return run.Run(out);
}

}  // namespace hkb
