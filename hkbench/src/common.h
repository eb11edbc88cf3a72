// hkbench: shared pieces of the end-to-end benchmark — run configuration,
// result reporting, the seeded key/value generator that doubles as the
// correctness oracle, a fine latency histogram, and /proc readers.
//
// Nothing here depends on src/workload: the benchmark makes its own inputs
// from --seed and hands the program only the generated keys and values.

#ifndef HKBENCH_SRC_COMMON_H_
#define HKBENCH_SRC_COMMON_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hkb {

// Exit codes of the benchmark binary (run.py adds its own, see README).
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;   // unknown or malformed flag
inline constexpr int kExitSetup = 4;   // store open, preload or server start failed
inline constexpr int kExitRun = 5;     // the run could not continue (transport lost, ...)

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;        // per-run scratch directory (created and removed by run.py)
  uint64_t spawn_ns = 0;  // CLOCK_MONOTONIC at process spawn; 0 = time from main()
  int threads = 0;        // embedded client threads; 0 = nproc
  std::string corrupt;    // checker self-test: "", "delete" or "overwrite"
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // every failed check, for stderr

  void Fail(std::string why) {
    correct = false;
    if (problems.size() < 20) {
      problems.push_back(std::move(why));
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// --- deterministic randomness ---------------------------------------------

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(Mix64(seed)) {}
  uint64_t Next() { return Mix64(state += 0x9E3779B97F4A7C15ull); }
  uint64_t Below(uint64_t n) { return static_cast<uint64_t>((__uint128_t{Next()} * n) >> 64); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"), theta 0.99, over ranks [0, n); ranks are scrambled
// into indexes by a multiplicative bijection so hot keys spread over shards.
class Zipf {
 public:
  explicit Zipf(uint64_t n, double theta = 0.99) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    zetan_ = zetan;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
  }
  uint64_t Next(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    rank = std::min(rank, n_ - 1);
    return static_cast<uint64_t>((__uint128_t{rank} * 2654435761ull) % n_);
  }

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

// --- keys and self-checking values ----------------------------------------
//
// Keys are named by a 64-bit key id: a slot index in the low 40 bits and a
// generation above it (the embedded write workload replaces a slot's key by
// the next generation's; every other key stays at generation 0, id = slot).
// Key `id` is 16 hex digits of a seeded hash of id, a '.', and id in
// decimal: unique, printable (memcached-safe) and parseable back to id.
//
// A value for (key id, version v) is laid out as
//   u64 id | u32 v | u64 checksum | filler
// where the filler is seeded pseudo-random bytes and the checksum (computed
// here, never by the program) covers every other byte.  A value's length is
// a function of the key id alone, so overwrites keep the data set's size.

inline constexpr int kGenShift = 40;
inline constexpr uint64_t kSlotMask = (uint64_t{1} << kGenShift) - 1;
inline uint64_t KeyId(uint64_t slot, uint32_t gen) { return slot | (uint64_t{gen} << kGenShift); }

inline constexpr size_t kMaxKeyLen = 40;
inline constexpr size_t kValueHeader = 20;

struct ValueShape {
  uint32_t small_min = 32;
  uint32_t small_max = 160;
  double big_share = 0;  // share of keys whose value exceeds a page
  uint32_t big_min = 0;
  uint32_t big_max = 0;
};

inline uint64_t Hash64(const uint8_t* p, size_t n, uint64_t h) {
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  uint64_t w = 0;
  std::memcpy(&w, p, n);
  h = (h ^ w ^ (uint64_t{n} << 56)) * 0x9E3779B97F4A7C15ull;
  return Mix64(h);
}

class DataSet {
 public:
  DataSet(uint64_t seed, ValueShape shape) : seed_(Mix64(seed ^ 0x6b76)), shape_(shape) {}

  size_t KeyInto(uint64_t id, char* out) const {
    static constexpr char kHex[] = "0123456789abcdef";
    uint64_t h = Mix64(seed_ ^ (id * 0xD6E8FEB86659FD93ull));
    for (int d = 15; d >= 0; --d) {
      out[d] = kHex[h & 15];
      h >>= 4;
    }
    out[16] = '.';
    char digits[24];
    int nd = 0;
    do {
      digits[nd++] = static_cast<char>('0' + id % 10);
      id /= 10;
    } while (id != 0);
    for (int d = 0; d < nd; ++d) {
      out[17 + d] = digits[nd - 1 - d];
    }
    return 17 + static_cast<size_t>(nd);
  }
  std::string Key(uint64_t id) const {
    char buf[kMaxKeyLen];
    return std::string(buf, KeyInto(id, buf));
  }
  // The key id encoded in a key, checked against the key's seeded prefix.
  bool ParseKey(std::string_view key, uint64_t* id) const {
    if (key.size() < 18 || key.size() > kMaxKeyLen || key[16] != '.') {
      return false;
    }
    uint64_t v = 0;
    for (size_t p = 17; p < key.size(); ++p) {
      if (key[p] < '0' || key[p] > '9') {
        return false;
      }
      v = v * 10 + static_cast<uint64_t>(key[p] - '0');
    }
    char buf[kMaxKeyLen];
    const size_t n = KeyInto(v, buf);
    if (std::string_view(buf, n) != key) {
      return false;
    }
    *id = v;
    return true;
  }

  uint32_t ValueLen(uint64_t id) const {
    const uint64_t h = Mix64(seed_ ^ (id * 0x9FB21C651E98DF25ull) ^ 0x51);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < shape_.big_share) {
      return shape_.big_min + static_cast<uint32_t>(h % (shape_.big_max - shape_.big_min + 1));
    }
    return shape_.small_min + static_cast<uint32_t>(h % (shape_.small_max - shape_.small_min + 1));
  }

  void MakeValue(uint64_t id, uint32_t version, std::string* out) const {
    const uint32_t len = ValueLen(id);
    out->resize(len);
    uint8_t* p = reinterpret_cast<uint8_t*>(out->data());
    std::memcpy(p, &id, 8);
    std::memcpy(p + 8, &version, 4);
    uint64_t s = Mix64(seed_ ^ id ^ (uint64_t{version} << 40));
    for (size_t off = kValueHeader; off < len; off += 8) {
      s = Mix64(s);
      std::memcpy(p + off, &s, std::min<size_t>(8, len - off));
    }
    const uint64_t sum = Checksum(p, len);
    std::memcpy(p + 12, &sum, 8);
  }

  // True when `v` is an intact value of key `id`; its version goes to *version.
  bool CheckValue(uint64_t id, std::string_view v, uint32_t* version) const {
    if (v.size() != ValueLen(id)) {
      return false;
    }
    const auto* p = reinterpret_cast<const uint8_t*>(v.data());
    uint64_t idx, sum;
    std::memcpy(&idx, p, 8);
    std::memcpy(version, p + 8, 4);
    std::memcpy(&sum, p + 12, 8);
    return idx == id && *version != 0 && sum == Checksum(p, v.size());
  }

 private:
  uint64_t Checksum(const uint8_t* p, size_t len) const {
    return Hash64(p + kValueHeader, len - kValueHeader, Hash64(p, 12, seed_));
  }

  uint64_t seed_;
  ValueShape shape_;
};

// --- version model ---------------------------------------------------------
//
// One state per slot: the generation of the slot's current key, that key's
// version and whether it was deleted (a deleted key keeps its last version,
// so a read that raced the delete can still be judged).  A writer publishes
// an overwrite or a delete BEFORE it calls the program, and an insert AFTER
// the call returned, so a reader that loads the state after its read can
// tell whether what it saw was possible.
class VersionModel {
 public:
  static constexpr uint64_t kDeleted = uint64_t{1} << 31;
  static uint64_t State(uint32_t gen, uint32_t version) { return uint64_t{gen} << 32 | version; }
  static uint32_t GenOf(uint64_t state) { return static_cast<uint32_t>(state >> 32); }
  static uint32_t VersionOf(uint64_t state) { return static_cast<uint32_t>(state & (kDeleted - 1)); }
  static bool IsDeleted(uint64_t state) { return (state & kDeleted) != 0; }

  explicit VersionModel(size_t n) : v_(new std::atomic<uint64_t>[n]), n_(n) {
    for (size_t i = 0; i < n; ++i) {
      v_[i].store(0, std::memory_order_relaxed);
    }
  }
  ~VersionModel() { delete[] v_; }
  VersionModel(const VersionModel&) = delete;
  VersionModel& operator=(const VersionModel&) = delete;
  size_t size() const { return n_; }
  uint64_t Load(size_t slot) const { return v_[slot].load(std::memory_order_acquire); }
  void Store(size_t slot, uint64_t state) { v_[slot].store(state, std::memory_order_release); }
  // The version of a slot that only ever holds its generation-0 key.
  uint32_t Version(size_t slot) const { return VersionOf(Load(slot)); }

 private:
  std::atomic<uint64_t>* v_;
  size_t n_;
};

// --- fine latency histogram -----------------------------------------------
//
// 128 sub-buckets per power of two (<1% relative width) up to ~68 s, with
// linear interpolation inside the bucket holding the requested rank, so a
// percentile reads as a continuous value rather than a bucket edge.
class FineHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = 1u << kSubBits;
  static constexpr int kMaxBits = 36;
  static constexpr size_t kBuckets = (kMaxBits - kSubBits) * kSub + kSub;

  FineHist() : b_(kBuckets, 0) {}
  void Record(uint64_t v) {
    ++b_[Index(std::min<uint64_t>(v, (uint64_t{1} << kMaxBits) - 1))];
    ++n_;
  }
  void Merge(const FineHist& o) {
    for (size_t i = 0; i < kBuckets; ++i) {
      b_[i] += o.b_[i];
    }
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }
  double Quantile(double q) const {
    if (n_ == 0) {
      return 0;
    }
    const double rank = q * static_cast<double>(n_);
    double cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (b_[i] == 0) {
        continue;
      }
      if (cum + static_cast<double>(b_[i]) >= rank) {
        const double lo = static_cast<double>(Lower(i));
        const double hi = static_cast<double>(Lower(i + 1));
        return lo + (hi - lo) * (rank - cum) / static_cast<double>(b_[i]);
      }
      cum += static_cast<double>(b_[i]);
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<size_t>(shift + 1) * kSub + ((v >> shift) & (kSub - 1));
  }
  static uint64_t Lower(size_t idx) {
    if (idx < kSub) {
      return idx;
    }
    const size_t shift = idx / kSub - 1;
    return (kSub + idx % kSub) << shift;
  }

  std::vector<uint32_t> b_;
  uint64_t n_ = 0;
};

// Operations of the timed phase in one-second windows, each with its own
// latency histogram.  A run reports the median window's rate and
// percentiles, so a burst of outside load in one window moves the result
// less than it would move whole-run totals.  Operations that complete after
// the last window (the drain once the run stops) are not counted here.
class OpWindows {
 public:
  static constexpr uint64_t kWindowNs = 1'000'000'000;

  void Start(uint64_t start_ns, int windows) {
    start_ = start_ns;
    w_.assign(static_cast<size_t>(windows), FineHist());
  }
  void Record(uint64_t end_ns, uint64_t latency_ns) {
    const uint64_t w = (end_ns - start_) / kWindowNs;
    if (w < w_.size()) {
      w_[w].Record(latency_ns);
    }
  }
  void Merge(const OpWindows& o) {
    if (w_.empty()) {
      *this = o;
      return;
    }
    for (size_t i = 0; i < w_.size(); ++i) {
      w_[i].Merge(o.w_[i]);
    }
  }
  double MedianRate() const {
    return Median([](const FineHist& h) { return static_cast<double>(h.count()); }) * 1e9 / kWindowNs;
  }
  double MedianQuantile(double q) const {
    return Median([q](const FineHist& h) { return h.Quantile(q); });
  }
  // "ops/s of window 0, window 1, ..." for the stderr summary.
  std::string Rates() const {
    std::string text;
    for (const FineHist& h : w_) {
      if (!text.empty()) {
        text += ' ';
      }
      text += std::to_string(h.count() * 1'000'000'000 / kWindowNs);
    }
    return text;
  }
  uint64_t samples() const {
    uint64_t n = 0;
    for (const FineHist& h : w_) {
      n += h.count();
    }
    return n;
  }

 private:
  template <typename Fn>
  double Median(Fn of) const {
    std::vector<double> v;
    for (const FineHist& h : w_) {
      v.push_back(of(h));
    }
    if (v.empty()) {
      return 0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }

  uint64_t start_ = 0;
  std::vector<FineHist> w_;
};

// --- process introspection --------------------------------------------------

double PeakRssMiB();          // VmHWM from /proc/self/status
uint64_t ProcWriteChars();    // wchar from /proc/self/io (0 when unreadable)
std::vector<int> AllowedCpus();  // CPUs this process may run on
inline int CpuCount() { return static_cast<int>(AllowedCpus().size()); }
// Restricts the calling thread to `cpus`.
void PinThread(const std::vector<int>& cpus);
// Bytes allocated on disk (st_blocks) to the regular files in `dir`: the
// table files reserve page ranges they have not written yet, which
// occupy no blocks.
uint64_t DirBytes(const std::string& dir);

// Embedded and server workloads.
int RunEmbedded(const Config& cfg, RunResult* out);
int RunServer(const Config& cfg, RunResult* out);

}  // namespace hkb

#endif  // HKBENCH_SRC_COMMON_H_
