#include "hkbench/src/probes.h"

#include <atomic>
#include <thread>

#include "src/net/memcached.h"
#include "src/net/proto.h"
#include "src/pagefile/buffer_pool.h"
#include "src/pagefile/page_file.h"
#include "src/util/hash_funcs.h"
#include "src/util/histogram.h"

namespace hkb {
namespace {

constexpr uint64_t kProbeNs = 60'000'000;  // each probe runs ~60 ms

// Calls `body(i)` in rounds until kProbeNs passed; returns ns per call.
template <typename Body>
double TimeLoop(size_t n, Body body) {
  uint64_t calls = 0;
  const uint64_t t0 = NowNs();
  uint64_t t1 = t0;
  while (t1 - t0 < kProbeNs) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    calls += n;
    t1 = NowNs();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

// Runs `per_thread(t)` on `threads` threads, each returning ns per call;
// reports their mean.
template <typename Fn>
double AcrossThreads(int threads, Fn per_thread) {
  std::vector<double> ns(threads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { ns[t] = per_thread(t); });
  }
  for (auto& th : pool) {
    th.join();
  }
  double sum = 0;
  for (double v : ns) {
    sum += v;
  }
  return sum / threads;
}

// Results of probed calls end here, so the compiler keeps the calls.
std::atomic<uint64_t> g_sink{0};
void Sink(uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

}  // namespace

double ProbeHashNsPerKey(const ProbeInputs& in) {
  uint64_t acc = 0;
  const double ns = TimeLoop(in.keys.size(), [&](size_t i) {
    acc += hashkit::HashDefault(in.keys[i].data(), in.keys[i].size());
  });
  Sink(acc);
  return ns;
}

double ProbeHistogramRecordNs(const ProbeInputs& in) {
  hashkit::LatencyHistogram hist;
  return AcrossThreads(in.threads, [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 1);
    std::vector<uint64_t> samples(4096);
    for (auto& s : samples) {
      s = 200 + rng.Below(2000);  // hit-path latencies, in ns
    }
    return TimeLoop(samples.size(), [&](size_t i) { hist.Record(samples[i]); });
  });
}

double ProbePoolHitNs(const ProbeInputs& in, int threads) {
  auto file = hashkit::OpenDiskPageFile(in.dir + "/probe_hit.pages", in.page_size, true);
  if (!file.ok()) {
    return -1;
  }
  hashkit::BufferPool pool(file.value().get(), 64 * in.page_size);
  {
    auto page = pool.Get(0, /*create_new=*/true);
    if (!page.ok()) {
      return -1;
    }
    std::memcpy(page.value().data(), in.keys[0].data(), in.keys[0].size());
    page.value().MarkDirty();
  }
  return AcrossThreads(threads, [&](int) {
    uint64_t acc = 0;
    const double ns = TimeLoop(1024, [&](size_t) {
      auto page = pool.Get(0);
      acc += page.ok() ? page.value().data()[0] : 0;
    });
    Sink(acc);
    return ns;
  });
}

double ProbePoolMissNs(const ProbeInputs& in) {
  constexpr uint64_t kPages = 1024;
  auto file = hashkit::OpenDiskPageFile(in.dir + "/probe_miss.pages", in.page_size, true);
  if (!file.ok()) {
    return -1;
  }
  std::vector<uint8_t> page(in.page_size);
  for (uint64_t p = 0; p < kPages; ++p) {
    const std::string& v = in.values[p % in.values.size()];
    std::memcpy(page.data(), v.data(), std::min<size_t>(v.size(), page.size()));
    if (!file.value()->WritePage(p, page).ok()) {
      return -1;
    }
  }
  // 16 frames over 1024 pages visited in order: every Get misses and reads
  // the page back from the file (the OS page cache, not the device).
  hashkit::BufferPool pool(file.value().get(), 16 * in.page_size);
  uint64_t next = 0, acc = 0;
  const double ns = TimeLoop(kPages, [&](size_t) {
    auto ref = pool.Get(next++ % kPages);
    acc += ref.ok() ? ref.value().data()[0] : 0;
  });
  Sink(acc);
  return ns;
}

double ProbeBinaryDecodeNs(const ProbeInputs& in) {
  // Frames are decoded from buffers of 32, one client pipeline window, the
  // way the server meets them after a read (decoding erases each frame
  // from the front of the buffer, so the buffer size matters).
  constexpr size_t kWindow = 32;
  std::vector<std::string> chunks;
  for (size_t i = 0; i < in.keys.size() && i < 4096; ++i) {
    if (i % kWindow == 0) {
      chunks.emplace_back();
    }
    hashkit::net::Request req;
    req.op = i % 5 == 0 ? hashkit::net::Opcode::kPut : hashkit::net::Opcode::kGet;
    req.seq = static_cast<uint32_t>(i + 1);
    req.key = in.keys[i];
    if (req.op == hashkit::net::Opcode::kPut) {
      req.value = in.values[i];
    }
    hashkit::net::EncodeRequest(req, &chunks.back());
  }
  std::string buf;
  hashkit::net::Request out;
  std::string error;
  uint64_t calls = 0;
  const uint64_t t0 = NowNs();
  uint64_t t1 = t0;
  while (t1 - t0 < kProbeNs) {
    for (const std::string& chunk : chunks) {
      buf.assign(chunk);
      size_t consumed = 0;
      while (hashkit::net::DecodeRequest(&buf, &out, &consumed, &error) ==
             hashkit::net::DecodeResult::kFrame) {
        ++calls;
      }
    }
    t1 = NowNs();
  }
  return calls > 0 ? static_cast<double>(t1 - t0) / static_cast<double>(calls) : -1;
}

double ProbeTextParseNs(const ProbeInputs& in) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < in.keys.size() && lines.size() < 4096; ++i) {
    lines.push_back(i % 10 == 0 ? "set " + in.keys[i] + " 0 0 " + std::to_string(in.values[i].size())
                                : "get " + in.keys[i]);
  }
  uint64_t acc = 0;
  const double ns = TimeLoop(lines.size(), [&](size_t i) {
    acc += hashkit::net::mc::ParseCommandLine(lines[i], 1u << 20).keys.size();
  });
  Sink(acc);
  return ns;
}

}  // namespace hkb
