// hkbench: in-memory span tracing from outside the program.
//
// Spans are recorded only by the benchmark's own code: around each client
// request, around every call a timing KvStore decorator forwards (the
// server→store ApplyBatch, the store→shard calls), and around each probe.
// Each span has a name, start, end, parent and a trace id shared by every
// span of one operation.  Spans live in per-thread buffers and are written
// out when the run ends.
//
// Sampling: tracing is switched on and off in alternating slices of the
// traced run (so its cost can be compared with the untraced slices), and
// inside an "on" slice a root span is kept only when it starts in the
// first millisecond of every kSampleEvery ms — a time window, so the
// client's and the server's spans of one window are sampled together.

#ifndef HKBENCH_SRC_TRACE_H_
#define HKBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kv/kv_store.h"
#include "src/kv/sharded.h"
#include "hkbench/src/common.h"

namespace hkb {

namespace kv = hashkit::kv;
using hashkit::Status;

enum SpanName : uint8_t {
  kSpanClientOp,      // embedded: one KvStore call as the benchmark thread sees it
  kSpanClientRequest, // server: one request, send to response
  kSpanKvGet,         // top decorator over the ShardedStore
  kSpanKvPut,
  kSpanKvBatch,       // server→store ApplyBatch
  kSpanShardGet,      // store→shard calls
  kSpanShardPut,
  kSpanShardBatch,
  kSpanProbe,         // a direct probe; its trace id numbers the probe
  kSpanNameCount,
};
const char* SpanNameOf(uint8_t name);

// Op-kind bits carried by a span: which kinds of operation it covered.
inline constexpr uint8_t kKindGet = 1;
inline constexpr uint8_t kKindPut = 2;
inline constexpr uint8_t kKindOther = 4;

struct Span {
  uint64_t trace = 0;  // shared by the spans of one operation
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t id = 0;     // unique within the thread
  uint32_t parent = 0; // 0 = root
  uint32_t ops = 1;    // operations the span covers (batches)
  uint16_t tid = 0;    // benchmark-assigned thread number
  uint8_t name = 0;
  uint8_t kinds = 0;
};

class Tracer {
 public:
  static constexpr uint64_t kSampleEvery = 64;     // ms
  static constexpr size_t kMaxSpansPerThread = 1u << 18;

  // Whether the current slice traces at all.
  static std::atomic<bool> on;

  // Begins a root span if this moment falls in a sampled window.  Returns
  // false (and records nothing) otherwise.
  static bool BeginRoot(uint8_t name, uint64_t trace);
  // Begins a child of the thread's current span, if one is open.
  static bool BeginChild(uint8_t name);
  static void End(uint32_t ops, uint8_t kinds);
  // Records a complete span that did not nest on this thread (pipelined
  // client requests overlap one another).
  static void RecordDetached(uint8_t name, uint64_t trace, uint64_t start, uint64_t end,
                             uint8_t kinds);
  static bool Sampled(uint64_t now_ns) {
    return on.load(std::memory_order_relaxed) && ((now_ns >> 20) % kSampleEvery) == 0;
  }

  // Every span recorded so far (call after all recording threads stopped).
  static std::vector<Span> Collect(uint64_t* dropped);
};

// Forwards every call to `inner`, opening a span around the data calls.
// `top` selects the span names: the decorator over the whole ShardedStore
// (kv.*) or over one shard (shard.*).
class SpanStore final : public kv::KvStore {
 public:
  SpanStore(std::unique_ptr<kv::KvStore> inner, bool top)
      : inner_(std::move(inner)), top_(top) {}

  Status Put(std::string_view key, std::string_view value, bool overwrite) override;
  Status Get(std::string_view key, std::string* value) override;
  Status ApplyBatch(std::span<kv::BatchOp> ops) override;

  Status Delete(std::string_view key) override { return inner_->Delete(key); }
  Status Scan(std::string* key, std::string* value, bool first) override {
    return inner_->Scan(key, value, first);
  }
  size_t PartitionCount() const override { return inner_->PartitionCount(); }
  size_t PartitionOf(std::string_view key) const override { return inner_->PartitionOf(key); }
  Status Sync() override { return inner_->Sync(); }
  uint64_t Size() const override { return inner_->Size(); }
  std::string Name() const override { return inner_->Name(); }
  kv::Capabilities Caps() const override { return inner_->Caps(); }
  bool Stats(kv::StoreStats* out) const override { return inner_->Stats(out); }

 private:
  bool Begin(uint8_t top_name, uint8_t shard_name);

  std::unique_ptr<kv::KvStore> inner_;
  bool top_;
};

// Per-layer sums computed from a span set.
struct SpanSummary {
  uint64_t spans = 0;
  // kv.* spans (top decorator): time, time not covered by shard spans, ops.
  double kv_ns = 0, kv_self_ns = 0, kv_ops = 0;
  // shard spans that carried only GETs / only PUTs.
  double shard_get_ns = 0, shard_get_ops = 0, shard_put_ns = 0, shard_put_ops = 0;
  // server: client request time not covered by store (kv.batch) spans.
  double net_self_ns = 0, net_requests = 0;
};
SpanSummary Summarize(const std::vector<Span>& spans);

// Writes spans as tab-separated lines: trace id parent name tid ops kinds
// start end.  Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace hkb

#endif  // HKBENCH_SRC_TRACE_H_
