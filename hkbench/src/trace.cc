#include "hkbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace hkb {

std::atomic<bool> Tracer::on{false};

namespace {

struct ThreadSpans {
  std::vector<Span> done;
  std::vector<Span> open;  // stack of spans begun but not ended
  uint32_t next = 0;
  uint16_t tid = 0;
  uint64_t dropped = 0;
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_threads.back().get();
    local->tid = static_cast<uint16_t>(g_threads.size());
    local->done.reserve(4096);
  }
  return *local;
}

uint32_t NextId(ThreadSpans& t) {
  return (uint32_t{t.tid} << 24) | (++t.next & 0xFFFFFF);
}

}  // namespace

const char* SpanNameOf(uint8_t name) {
  static const char* kNames[kSpanNameCount] = {
      "client.op", "client.request", "kv.get",      "kv.put",   "kv.batch",
      "shard.get", "shard.put",      "shard.batch", "probe"};
  return name < kSpanNameCount ? kNames[name] : "?";
}

bool Tracer::BeginRoot(uint8_t name, uint64_t trace) {
  const uint64_t now = NowNs();
  if (!Sampled(now)) {
    return false;
  }
  ThreadSpans& t = Local();
  Span s;
  s.trace = trace;
  s.start = now;
  s.id = NextId(t);
  s.tid = t.tid;
  s.name = name;
  t.open.push_back(s);
  return true;
}

bool Tracer::BeginChild(uint8_t name) {
  ThreadSpans& t = Local();
  if (t.open.empty()) {
    return false;
  }
  Span s;
  s.trace = t.open.back().trace;
  s.parent = t.open.back().id;
  s.id = NextId(t);
  s.tid = t.tid;
  s.name = name;
  s.start = NowNs();
  t.open.push_back(s);
  return true;
}

void Tracer::End(uint32_t ops, uint8_t kinds) {
  const uint64_t now = NowNs();
  ThreadSpans& t = Local();
  Span s = t.open.back();
  t.open.pop_back();
  s.end = now;
  s.ops = ops;
  s.kinds = kinds;
  if (t.done.size() < kMaxSpansPerThread) {
    t.done.push_back(s);
  } else {
    ++t.dropped;
  }
}

void Tracer::RecordDetached(uint8_t name, uint64_t trace, uint64_t start, uint64_t end,
                            uint8_t kinds) {
  ThreadSpans& t = Local();
  Span s;
  s.trace = trace;
  s.start = start;
  s.end = end;
  s.id = NextId(t);
  s.tid = t.tid;
  s.name = name;
  s.kinds = kinds;
  if (t.done.size() < kMaxSpansPerThread) {
    t.done.push_back(s);
  } else {
    ++t.dropped;
  }
}

std::vector<Span> Tracer::Collect(uint64_t* dropped) {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::vector<Span> all;
  *dropped = 0;
  for (const auto& t : g_threads) {
    all.insert(all.end(), t->done.begin(), t->done.end());
    *dropped += t->dropped;
  }
  // The wire protocol carries no trace context, so a server-side root
  // (kv.batch, on the single server worker) is attached to the client
  // request that was in flight when it started, latest sender first; its
  // shard children follow it into that request's trace.
  std::vector<const Span*> requests;
  for (const Span& s : all) {
    if (s.name == kSpanClientRequest) {
      requests.push_back(&s);
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  std::vector<std::pair<uint32_t, std::pair<uint64_t, uint32_t>>> relinked;  // id -> (trace, parent)
  for (Span& s : all) {
    if (s.name != kSpanKvBatch || s.parent != 0 || requests.empty()) {
      continue;
    }
    auto it = std::upper_bound(requests.begin(), requests.end(), s.start,
                               [](uint64_t t, const Span* r) { return t < r->start; });
    for (int back = 0; it != requests.begin() && back < 64; ++back) {
      --it;
      if ((*it)->end >= s.start) {
        s.trace = (*it)->trace;
        s.parent = (*it)->id;
        relinked.push_back({s.id, {s.trace, s.parent}});
        break;
      }
    }
  }
  std::sort(relinked.begin(), relinked.end());
  for (Span& s : all) {
    if (s.name == kSpanShardBatch || s.name == kSpanShardGet || s.name == kSpanShardPut) {
      auto it = std::lower_bound(relinked.begin(), relinked.end(),
                                 std::make_pair(s.parent, std::make_pair(uint64_t{0}, 0u)));
      if (it != relinked.end() && it->first == s.parent) {
        s.trace = it->second.first;
      }
    }
  }
  return all;
}

bool SpanStore::Begin(uint8_t top_name, uint8_t shard_name) {
  if (!Tracer::on.load(std::memory_order_relaxed)) {
    return false;
  }
  if (top_) {
    // Embedded calls nest under the benchmark's client.op span; a server
    // worker's ApplyBatch has no parent on its thread and starts a root.
    return Tracer::BeginChild(top_name) ||
           (top_name == kSpanKvBatch && Tracer::BeginRoot(top_name, NowNs()));
  }
  return Tracer::BeginChild(shard_name);
}

Status SpanStore::Put(std::string_view key, std::string_view value, bool overwrite) {
  const bool traced = Begin(kSpanKvPut, kSpanShardPut);
  Status s = inner_->Put(key, value, overwrite);
  if (traced) {
    Tracer::End(1, kKindPut);
  }
  return s;
}

Status SpanStore::Get(std::string_view key, std::string* value) {
  const bool traced = Begin(kSpanKvGet, kSpanShardGet);
  Status s = inner_->Get(key, value);
  if (traced) {
    Tracer::End(1, kKindGet);
  }
  return s;
}

Status SpanStore::ApplyBatch(std::span<kv::BatchOp> ops) {
  const bool traced = Begin(kSpanKvBatch, kSpanShardBatch);
  Status s = inner_->ApplyBatch(ops);
  if (traced) {
    uint8_t kinds = 0;
    for (const kv::BatchOp& op : ops) {
      kinds |= op.kind == kv::BatchOp::Kind::kGet   ? kKindGet
               : op.kind == kv::BatchOp::Kind::kPut ? kKindPut
                                                    : kKindOther;
    }
    Tracer::End(static_cast<uint32_t>(ops.size()), kinds);
  }
  return s;
}

namespace {

// Length of [start, end) covered by `covers` (sorted by start, disjoint).
double Covered(uint64_t start, uint64_t end, const std::vector<std::pair<uint64_t, uint64_t>>& covers) {
  auto it = std::upper_bound(covers.begin(), covers.end(), std::make_pair(start, ~uint64_t{0}));
  if (it != covers.begin()) {
    --it;
  }
  double total = 0;
  for (; it != covers.end() && it->first < end; ++it) {
    const uint64_t lo = std::max(start, it->first);
    const uint64_t hi = std::min(end, it->second);
    if (hi > lo) {
      total += static_cast<double>(hi - lo);
    }
  }
  return total;
}

}  // namespace

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  out.spans = spans.size();
  // Child time per parent span id (children nest on the parent's thread).
  std::vector<std::pair<uint32_t, uint64_t>> child_ns;
  std::vector<std::pair<uint64_t, uint64_t>> store_calls;
  for (const Span& s : spans) {
    const bool shard = s.name == kSpanShardGet || s.name == kSpanShardPut ||
                       s.name == kSpanShardBatch;
    if (shard) {
      child_ns.push_back({s.parent, s.end - s.start});
      const double ns = static_cast<double>(s.end - s.start);
      if (s.kinds == kKindGet) {
        out.shard_get_ns += ns;
        out.shard_get_ops += s.ops;
      } else if (s.kinds == kKindPut) {
        out.shard_put_ns += ns;
        out.shard_put_ops += s.ops;
      }
    }
    if (s.name == kSpanKvBatch) {
      store_calls.push_back({s.start, s.end});
    }
  }
  std::sort(child_ns.begin(), child_ns.end());
  std::sort(store_calls.begin(), store_calls.end());
  for (const Span& s : spans) {
    if (s.name == kSpanKvGet || s.name == kSpanKvPut || s.name == kSpanKvBatch) {
      const double ns = static_cast<double>(s.end - s.start);
      double covered = 0;
      for (auto it = std::lower_bound(child_ns.begin(), child_ns.end(),
                                      std::make_pair(s.id, uint64_t{0}));
           it != child_ns.end() && it->first == s.id; ++it) {
        covered += static_cast<double>(it->second);
      }
      out.kv_ns += ns;
      out.kv_self_ns += ns - covered;
      out.kv_ops += s.ops;
    } else if (s.name == kSpanClientRequest) {
      out.net_self_ns += static_cast<double>(s.end - s.start) - Covered(s.start, s.end, store_calls);
      out.net_requests += 1;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "#trace\tid\tparent\tname\ttid\tops\tkinds\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llx\t%x\t%x\t%s\t%u\t%u\t%u\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.trace), s.id, s.parent, SpanNameOf(s.name),
                 static_cast<unsigned>(s.tid), s.ops, static_cast<unsigned>(s.kinds),
                 static_cast<unsigned long long>(s.start), static_cast<unsigned long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace hkb
