// hkbench: the server workloads — an in-process net::Server on port 0 with
// one worker, driven by two closed-loop client connections from one client
// thread.
//
//   server-binary-pipelined  binary protocol, 80% GET / 20% PUT, each
//                            connection keeps 32 requests in flight.
//   server-memcached-rtt     memcached text protocol, 90% get / 10% set,
//                            one request in flight per connection.
//
// Both run over a resident data set (durability none) with Zipf-skewed
// keys.  Connection c owns key i when i % 2 == c and is the only writer of
// its keys, so the oracle is the same as the embedded one.  One worker,
// because with more, forwarded requests can wait for the event loop's 1 s
// tick (see CHANGES.md) and SO_REUSEPORT places connections on workers by
// a hash of their port, which differs from run to run.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "hkbench/src/common.h"
#include "hkbench/src/layers.h"
#include "hkbench/src/trace.h"
#include "src/net/client.h"
#include "src/net/memcached.h"
#include "src/net/proto.h"
#include "src/net/server.h"

namespace hkb {

using hashkit::Status;
namespace kv = hashkit::kv;
namespace net = hashkit::net;

namespace {

constexpr int kConnections = 2;
constexpr size_t kKeys = 100'000;
constexpr size_t kShards = 4;
constexpr uint64_t kPoolBytes = 32ull << 20;
constexpr int kSocketTimeoutS = 10;

struct ServerSpec {
  bool text = false;
  size_t depth = 1;
  double get_share = 0;
};

ServerSpec SpecFor(const std::string& workload) {
  if (workload == "server-binary-pipelined") {
    return {.text = false, .depth = 32, .get_share = 0.80};
  }
  return {.text = true, .depth = 1, .get_share = 0.90};
}

// A blocking TCP connection with deadlines on every wait.
class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{.tv_sec = kSocketTimeoutS, .tv_usec = 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  bool SendAll(std::string* out) {
    size_t off = 0;
    while (off < out->size()) {
      const ssize_t n = send(fd_, out->data() + off, out->size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      off += static_cast<size_t>(n);
    }
    out->clear();
    return true;
  }
  // Appends whatever the socket has without waiting: 1 when bytes came,
  // 0 when there were none, -1 when the connection failed or was closed.
  int TryReceive(std::string* in) {
    char buf[64 * 1024];
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      in->append(buf, static_cast<size_t>(n));
      return 1;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) ? 0 : -1;
  }

 private:
  int fd_ = -1;
};

struct Pending {
  uint64_t i = 0;
  uint64_t sent_ns = 0;
  uint32_t seq = 0;
  uint32_t expect = 0;  // own-key GET: the version it must read
  bool get = true;
  bool own = false;
  bool traced_slice = false;  // sent while tracing was on
};

struct ClientState {
  OpWindows windows;
  uint64_t ops = 0, ops_traced = 0;
  uint64_t gets = 0, puts = 0;
  uint64_t failed = 0, wrong = 0;
  std::string problem;  // first wrong answer
  std::string fatal;    // transport failure that ended the client
};

struct Link;

class ServerRun {
 public:
  ServerRun(const Config& cfg, ServerSpec spec)
      : cfg_(cfg), spec_(spec), data_(cfg.seed, ValueShape{}), model_(kKeys), zipf_all_(kKeys) {}
  int Run(RunResult* out);

 private:
  void Clients(uint16_t port);
  // Sends connection `c`'s next requests, up to the pipeline's depth.
  void TopUp(int c, Link& l, bool stopping);
  // Answers the complete responses in `l.in`; false on a fatal error.
  bool Answer(int c, Link& l, uint64_t now);
  // Checks one answered GET (`found` false for a miss).
  void CheckGet(ClientState& st, const Pending& p, bool found, std::string_view value);

  const Config& cfg_;
  const ServerSpec spec_;
  const DataSet data_;
  VersionModel model_;
  const Zipf zipf_all_;
  BenchStore bs_;
  ClientState clients_[kConnections];
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
};

void ServerRun::CheckGet(ClientState& st, const Pending& p, bool found, std::string_view value) {
  uint32_t version = 0;
  const uint32_t modeled = model_.Version(p.i);
  if (!found || !data_.CheckValue(p.i, value, &version) ||
      (p.own ? version != p.expect : version > modeled)) {
    if (++st.wrong == 1) {
      st.problem = "GET " + data_.Key(p.i) + ": " +
                   (found ? "version " + std::to_string(version) + ", expected " +
                                (p.own ? std::to_string(p.expect) : "<= " + std::to_string(modeled))
                          : "not found");
    }
  }
}

// One connection's side of the client: its socket, key stream and pipeline.
struct Link {
  Link(uint64_t seed, int c)
      : rng(seed * 0x100 + static_cast<uint64_t>(c) + 101),
        zipf_own((kKeys - static_cast<uint64_t>(c) + kConnections - 1) / kConnections) {}
  Conn conn;
  Rng rng;
  const Zipf zipf_own;
  std::deque<Pending> inflight;
  std::string out, in;
  uint32_t seq = 0;
  uint64_t waiting_since = 0;  // when the oldest unanswered request was sent
};

void ServerRun::TopUp(int c, Link& l, bool stopping) {
  ClientState& st = clients_[c];
  std::string value;
  char key[kMaxKeyLen];
  while (!stopping && l.inflight.size() < spec_.depth) {
    Pending p;
    p.seq = ++l.seq;
    p.get = l.rng.Unit() < spec_.get_share;
    if (p.get) {
      p.i = zipf_all_.Next(l.rng);
      p.own = p.i % kConnections == static_cast<uint64_t>(c);
      p.expect = p.own ? model_.Version(p.i) : 0;
    } else {
      p.i = static_cast<uint64_t>(c) + kConnections * l.zipf_own.Next(l.rng);
      p.own = true;
      p.expect = model_.Version(p.i) + 1;
      model_.Store(p.i, VersionModel::State(0, p.expect));
      data_.MakeValue(p.i, p.expect, &value);
    }
    const size_t kn = data_.KeyInto(p.i, key);
    const std::string_view k(key, kn);
    if (spec_.text) {
      if (p.get) {
        l.out.append("get ").append(k).append("\r\n");
      } else {
        l.out.append("set ").append(k).append(" 0 0 ").append(std::to_string(value.size()));
        l.out.append("\r\n").append(value).append("\r\n");
      }
    } else {
      net::EncodeRequestHeaderRaw(p.get ? net::Opcode::kGet : net::Opcode::kPut, 0, p.seq,
                                  static_cast<uint32_t>(kn),
                                  p.get ? 0 : static_cast<uint32_t>(value.size()), &l.out);
      l.out.append(k);
      if (!p.get) {
        l.out.append(value);
      }
    }
    l.inflight.push_back(p);
    ++(p.get ? st.gets : st.puts);
  }
  if (l.out.empty()) {
    return;
  }
  const uint64_t now = NowNs();
  const bool traced_slice = Tracer::on.load(std::memory_order_relaxed);
  for (auto it = l.inflight.rbegin(); it != l.inflight.rend() && it->sent_ns == 0; ++it) {
    it->sent_ns = now;
    it->traced_slice = traced_slice;
  }
  if (l.inflight.front().sent_ns == now) {
    l.waiting_since = now;
  }
  if (!l.conn.SendAll(&l.out)) {
    st.fatal = "send failed";
  }
}

bool ServerRun::Answer(int c, Link& l, uint64_t now) {
  ClientState& st = clients_[c];
  std::string got_value;
  // Answer every complete response in the buffer (text responses are
  // consumed by advancing `pos`, binary ones by the decoder).
  size_t pos = 0;
  while (!l.inflight.empty()) {
    const Pending& p = l.inflight.front();
    bool ok = false;
    bool found = false;
    std::string_view got;
    if (spec_.text) {
      const size_t eol = l.in.find("\r\n", pos);
      if (eol == std::string::npos) {
        break;
      }
      const std::string_view line(l.in.data() + pos, eol - pos);
      size_t next = eol + 2;
      if (p.get && line.rfind("VALUE ", 0) == 0) {
        const size_t sp = line.rfind(' ');
        const size_t bytes = std::stoul(std::string(line.substr(sp + 1)));
        if (l.in.size() < next + bytes + 2 + 5) {
          break;
        }
        got = std::string_view(l.in.data() + next, bytes);
        next += bytes + 2;
        ok = l.in.compare(next, 5, "END\r\n") == 0;
        next += 5;
        found = true;
      } else {
        ok = p.get ? line == "END" : line == "STORED";
      }
      pos = next;
    } else {
      net::Response resp;
      size_t consumed = 0;
      std::string error;
      const auto r = net::DecodeResponse(&l.in, &resp, &consumed, &error);
      if (r == net::DecodeResult::kNeedMore) {
        break;
      }
      if (r == net::DecodeResult::kMalformed || resp.seq != p.seq) {
        st.fatal = "malformed or out-of-order response: " + error;
        return false;
      }
      ok = resp.status == hashkit::StatusCode::kOk || (p.get && resp.status == hashkit::StatusCode::kNotFound);
      found = resp.status == hashkit::StatusCode::kOk;
      got_value = std::move(resp.value);
      got = got_value;
    }
    if (!ok) {
      ++st.failed;
    } else if (p.get) {
      CheckGet(st, p, found, got);
    }
    if (Tracer::Sampled(p.sent_ns)) {
      Tracer::RecordDetached(kSpanClientRequest, (uint64_t{static_cast<uint32_t>(c)} << 40) | p.seq,
                             p.sent_ns, now, p.get ? kKindGet : kKindPut);
    }
    ++(p.traced_slice ? st.ops_traced : st.ops);
    st.windows.Record(now, now - p.sent_ns);
    l.inflight.pop_front();
  }
  l.in.erase(0, pos);
  l.waiting_since = l.inflight.empty() ? 0 : l.inflight.front().sent_ns;
  return true;
}

// One thread drives every connection, so the load comes from a single
// busy CPU: it keeps each connection's pipeline at its depth, polls the
// sockets in turn and answers whatever came.  It spins rather than
// sleeping in recv, so its CPU never idles and a response is seen without
// waiting for that CPU to wake up.
void ServerRun::Clients(uint16_t port) {
  std::unique_ptr<Link> links[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    links[c] = std::make_unique<Link>(cfg_.seed, c);
    if (!links[c]->conn.Connect(port)) {
      clients_[c].fatal = "connect failed";
      return;
    }
  }
  while (!go_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  constexpr uint64_t kTimeoutNs = uint64_t{kSocketTimeoutS} * 1'000'000'000;
  for (uint32_t idle = 0;;) {
    const bool stopping = stop_.load(std::memory_order_relaxed);
    bool busy = false;
    for (int c = 0; c < kConnections; ++c) {
      Link& l = *links[c];
      TopUp(c, l, stopping);
      if (!clients_[c].fatal.empty()) {
        return;
      }
      if (l.inflight.empty()) {
        continue;
      }
      busy = true;
      const int got = l.conn.TryReceive(&l.in);
      if (got < 0) {
        clients_[c].fatal = "connection closed or failed";
        return;
      }
      if (got > 0) {
        idle = 0;
        if (!Answer(c, l, NowNs())) {
          return;
        }
      } else if (++idle % 1024 == 0 && NowNs() - l.waiting_since > kTimeoutNs) {
        clients_[c].fatal = "no response within " + std::to_string(kSocketTimeoutS) + " s";
        return;
      }
    }
    if (!busy) {
      return;  // stopping, and every request was answered
    }
  }
}

// The STATS counters the run reconciles against.
struct NetCounters {
  uint64_t gets = 0, puts = 0, batches = 0, batched_ops = 0, bytes = 0, shed = 0;
};

bool ReadNetCounters(uint16_t port, NetCounters* c) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    return false;
  }
  std::string text;
  if (!client.value()->Stats(&text).ok()) {
    return false;
  }
  std::map<std::string, uint64_t> kv;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      kv[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    }
  }
  for (const char* name : {"server.requests.GET", "server.requests.PUT", "server.batches",
                           "server.batched_ops", "server.bytes_in", "server.bytes_out",
                           "server.ops_shed"}) {
    if (kv.count(name) == 0) {
      return false;
    }
  }
  c->gets = kv["server.requests.GET"];
  c->puts = kv["server.requests.PUT"];
  c->batches = kv["server.batches"];
  c->batched_ops = kv["server.batched_ops"];
  c->bytes = kv["server.bytes_in"] + kv["server.bytes_out"];
  c->shed = kv["server.ops_shed"];
  return true;
}

int ServerRun::Run(RunResult* out) {
  const uint64_t main_start = NowNs();
  kv::StoreOptions o;
  o.cachesize = kPoolBytes / kShards;
  o.nelem = kKeys / kShards;
  auto opened = OpenBenchStore(cfg_.dir, o, kShards, cfg_.trace);
  if (!opened.ok()) {
    std::fprintf(stderr, "hkbench: open store: %s\n", opened.status().ToString().c_str());
    return kExitSetup;
  }
  bs_ = std::move(opened.value());
  std::string value, stored;
  char key[kMaxKeyLen];
  for (uint64_t i = 0; i < kKeys; ++i) {
    data_.MakeValue(i, 1, &value);
    if (spec_.text) {
      net::mc::EncodeValue(0, value, &stored);  // the text protocol's storage format
    } else {
      stored.swap(value);
    }
    model_.Store(i, VersionModel::State(0, 1));
    const Status s = bs_.store->Put(std::string_view(key, data_.KeyInto(i, key)), stored, false);
    if (!s.ok()) {
      std::fprintf(stderr, "hkbench: preload put: %s\n", s.ToString().c_str());
      return kExitSetup;
    }
  }
  net::ServerOptions so;
  so.workers = 1;
  so.port = 0;
  so.memcached_port = spec_.text ? 0 : -1;
  // With two CPUs or more the worker and the client thread get a CPU each,
  // so the kernel's placement of the two busy threads cannot differ
  // between runs.  The worker thread inherits the starting thread's CPU set.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() > 1;
  if (pin) {
    PinThread({cpus.back()});
  }
  net::Server server(bs_.store.get(), so);
  const Status started = server.Start();
  if (pin) {
    PinThread(cpus);
  }
  if (!started.ok()) {
    std::fprintf(stderr, "hkbench: server start: %s\n", started.ToString().c_str());
    return kExitSetup;
  }
  const uint16_t port = spec_.text ? server.memcached_port() : server.port();
  std::thread client([this, port, pin, &cpus] {
    if (pin) {
      PinThread({cpus[cpus.size() - 2]});
    }
    Clients(port);
  });
  const double setup_s =
      static_cast<double>(NowNs() - (cfg_.spawn_ns != 0 ? cfg_.spawn_ns : main_start)) * 1e-9;

  NetCounters net0, net1;
  const StoreCounters before = ReadCounters(bs_);
  const bool stats0 = ReadNetCounters(server.port(), &net0);
  const uint64_t t0 = NowNs();
  for (ClientState& st : clients_) {
    st.windows.Start(t0, cfg_.seconds);
  }
  go_.store(true, std::memory_order_release);
  double untraced_s = 0, traced_s = 0;
  if (cfg_.trace) {
    RunSlices(cfg_.seconds, &untraced_s, &traced_s);
  } else {
    std::this_thread::sleep_for(std::chrono::seconds(cfg_.seconds));
  }
  stop_.store(true, std::memory_order_relaxed);
  client.join();
  const StoreCounters after = ReadCounters(bs_);
  const bool stats1 = ReadNetCounters(server.port(), &net1);
  server.Stop();

  OpWindows windows;
  uint64_t ops = 0, ops_traced = 0, gets = 0, puts = 0, wrong = 0;
  std::string fatal;
  for (const ClientState& st : clients_) {
    windows.Merge(st.windows);
    ops += st.ops;
    ops_traced += st.ops_traced;
    gets += st.gets;
    puts += st.puts;
    out->failed += st.failed;
    wrong += st.wrong;
    if (!st.problem.empty()) {
      out->Fail("oracle: " + st.problem);
    }
    if (!st.fatal.empty()) {
      fatal = st.fatal;
    }
  }
  if (!fatal.empty()) {
    std::fprintf(stderr, "hkbench: client: %s\n", fatal.c_str());
    return kExitRun;
  }
  out->attempted = ops + ops_traced;
  if (wrong != 0) {
    out->Fail("oracle: " + std::to_string(wrong) + " reads returned a wrong value");
  }
  if (!stats0 || !stats1) {
    out->Fail("reconcile: STATS request failed or lacked a server.* counter");
  } else if (net1.gets - net0.gets != gets || net1.puts - net0.puts != puts) {
    out->Fail("reconcile: clients sent " + std::to_string(gets) + " GETs and " +
              std::to_string(puts) + " PUTs, STATS counted " + std::to_string(net1.gets - net0.gets) +
              " and " + std::to_string(net1.puts - net0.puts));
  }
  if (net1.shed != net0.shed) {
    out->Fail("premise: the server shed " + std::to_string(net1.shed - net0.shed) + " ops");
  }
  if (after.sum.pool.misses != before.sum.pool.misses) {
    out->Fail("premise: the data set should stay resident, but the pool missed " +
              std::to_string(after.sum.pool.misses - before.sum.pool.misses) + " times");
  }

  if (cfg_.corrupt == "delete") {
    bs_.store->Delete(data_.Key(0));
  } else if (cfg_.corrupt == "overwrite") {
    data_.MakeValue(0, model_.Version(0) + 1, &value);
    net::mc::EncodeValue(0, value, &stored);
    bs_.store->Put(data_.Key(0), spec_.text ? stored : value, true);
  }
  Census(bs_.store.get(), data_, model_, spec_.text, "end of run", out);
  const double peak_rss = PeakRssMiB();
  const Status synced = bs_.store->Sync();
  if (!synced.ok()) {
    out->Fail("final Sync: " + synced.ToString());
  }
  uint64_t user_bytes;
  LiveKeys(data_, model_, &user_bytes);
  if (!cfg_.trace) {
    EndToEnd e;
    e.windows = &windows;
    e.setup_s = setup_s;
    e.peak_rss_mib = peak_rss;
    e.keys = kKeys;
    e.user_bytes = user_bytes;
    e.disk_bytes = DirBytes(cfg_.dir);
    e.pool_bytes = kPoolBytes;
    e.clients = std::to_string(kConnections) + " connections at depth " + std::to_string(spec_.depth);
    AddEndToEnd(cfg_.workload, e, out);
    return kExitOk;
  }

  LayerInputs in;
  in.before = before;
  in.after = after;
  in.client_ops = ops + ops_traced;
  in.live_keys = kKeys;
  in.embedded = false;
  in.untraced_ops_per_s = untraced_s > 0 ? static_cast<double>(ops) / untraced_s : 0;
  in.traced_ops_per_s = traced_s > 0 ? static_cast<double>(ops_traced) / traced_s : 0;
  in.net_batches = net1.batches - net0.batches;
  in.net_batched_ops = net1.batched_ops - net0.batched_ops;
  in.net_bytes = net1.bytes - net0.bytes;
  in.net_requests = (net1.gets - net0.gets) + (net1.puts - net0.puts);
  in.net_shed = net1.shed - net0.shed;
  in.probe.dir = cfg_.dir;
  in.probe.threads = CpuCount();
  for (uint64_t i = 0; i < 4096; ++i) {
    in.probe.keys.push_back(data_.Key(i));
    in.probe.values.emplace_back();
    data_.MakeValue(i, 1, &in.probe.values.back());
  }
  AddLayerMetrics(in, cfg_.trace_out, out);
  return kExitOk;
}

}  // namespace

int RunServer(const Config& cfg, RunResult* out) {
  ServerRun run(cfg, SpecFor(cfg.workload));
  return run.Run(out);
}

}  // namespace hkb
