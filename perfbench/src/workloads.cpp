#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "core/wire_format.hpp"
#include "fabric/fault.hpp"
#include "fabric/presets.hpp"
#include "topo/topology.hpp"

namespace perfbench {

using rails::NodeId;
using rails::SimDuration;
using rails::SimTime;
using rails::Tag;
using rails::core::RecvHandle;
using rails::core::SendHandle;
using rails::core::World;
using rails::core::WorldConfig;

namespace {

// -- seeded inputs -----------------------------------------------------------

constexpr std::size_t kMaxMessage = 512u * 1024u;
constexpr std::size_t kOffsetSpan = 1024u * 1024u;

std::uint64_t mix64(std::uint64_t x) {  // SplitMix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent draw number `index` of stream `stream` under `seed`.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(stream)) + index);
}

double unit(std::uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1.0p-53; }

enum Stream : std::uint64_t { kTape = 1, kOffset, kSkew, kSize, kGap, kEpisode };

Delivery delivery_of(const RecvHandle& r, std::size_t len, const std::uint8_t* received,
                     const std::uint8_t* expected, SimTime due) {
  Delivery d;
  d.recv_done = r && r->done();
  d.len = len;
  d.bytes_received = r ? r->bytes_received : 0;
  d.received = received;
  d.expected = expected;
  d.due = due;
  d.complete = d.recv_done ? r->complete_time : 0;
  return d;
}

/// Records a verified message's virtual latency and span end.
void note(Pass& pass, const Delivery& d) {
  if (!d.recv_done) return;
  pass.latencies.push_back(d.complete - d.due);
  pass.last_complete = std::max(pass.last_complete, d.complete);
}

std::uint64_t sends_not_done(const std::vector<SendHandle>& sends) {
  return static_cast<std::uint64_t>(std::count_if(
      sends.begin(), sends.end(), [](const SendHandle& s) { return !s || !s->done(); }));
}

std::uint64_t eager_framing(const std::vector<SendHandle>& sends, std::size_t rdv_threshold) {
  std::uint64_t bytes = 0;
  for (const SendHandle& s : sends) {
    if (s && s->len <= rdv_threshold) {
      bytes += static_cast<std::uint64_t>(s->chunk_count) * rails::core::SubPacket::kHeaderBytes;
    }
  }
  return bytes;
}

// -- torus_eager ---------------------------------------------------------------
// 16x16 torus, two SeaStar rails, hetero-split. Each round every off-diagonal
// node (x, y) sends 2 KiB to its transpose partner (y, x); a round starts once
// the previous round's receives have all completed (closed loop). Each send is
// due at the round start plus a seeded skew of up to 2 us, standing in for
// uneven compute between exchanges.

constexpr unsigned kSide = 16;
constexpr unsigned kTorusRounds = 100;
constexpr std::size_t kTorusBytes = 2048;
constexpr SimDuration kTorusSkewNs = 2000;

WorldConfig torus_config(std::uint64_t) {
  WorldConfig cfg;
  cfg.fabric.node_count = kSide * kSide;
  cfg.fabric.rails = {rails::fabric::seastar_torus(), rails::fabric::seastar_torus()};
  cfg.fabric.net = rails::topo::TopologySpec::torus(kSide, kSide);
  cfg.strategy = "hetero-split";
  return cfg;
}

/// Links on the shortest route between two torus nodes, worked out here from
/// coordinates (wrap-aware Manhattan distance), not taken from the library.
unsigned torus_hops(NodeId a, NodeId b) {
  const auto ring = [](unsigned u, unsigned v) {
    const unsigned d = u > v ? u - v : v - u;
    return std::min(d, kSide - d);
  };
  return ring(a % kSide, b % kSide) + ring(a / kSide, b / kSide);
}

void run_torus(World& world, const Inputs& in, Checker& check, Pass& pass) {
  struct Pair {
    NodeId src = 0;
    NodeId dst = 0;
    unsigned hops = 0;
  };
  std::vector<Pair> pairs;
  for (NodeId n = 0; n < kSide * kSide; ++n) {
    const unsigned x = n % kSide;
    const unsigned y = n / kSide;
    if (x != y) pairs.push_back({n, x * kSide + y, 0});
  }
  std::uint64_t hop_excess = 0;  // sum of (hops - 1) over one round
  for (Pair& p : pairs) {
    p.hops = torus_hops(p.src, p.dst);
    hop_excess += p.hops - 1;
  }
  double wire_us = world.fabric().config().rails.front().wire_latency_us;
  for (const auto& rail : world.fabric().config().rails) {
    wire_us = std::min(wire_us, rail.wire_latency_us);
  }
  const auto wire_ns = static_cast<SimDuration>(std::floor(wire_us * 1e3));

  const std::size_t n = pairs.size();
  std::vector<std::uint8_t> rx(n * kTorusBytes);
  std::vector<RecvHandle> recvs(n);
  std::vector<SendHandle> sends(n);
  std::vector<SimTime> due(n);
  std::vector<SimDuration> skew(static_cast<std::size_t>(kTorusRounds) * n);
  for (std::size_t i = 0; i < skew.size(); ++i) {
    skew[i] = static_cast<SimDuration>(draw(in.seed, kSkew, i) %
                                       static_cast<std::uint64_t>(kTorusSkewNs));
  }
  pass.sending_nodes = n;
  auto& events = world.fabric().events();

  pass.timer.start();
  for (unsigned round = 0; round < kTorusRounds; ++round) {
    const std::uint64_t base = static_cast<std::uint64_t>(round) * n;
    const SimTime start = world.now();
    for (std::size_t p = 0; p < n; ++p) {
      recvs[p] = recv(world.engine(pairs[p].dst), pairs[p].src, base + p,
                      rx.data() + p * kTorusBytes, kTorusBytes);
    }
    for (std::size_t p = 0; p < n; ++p) {
      due[p] = start + skew[base + p];
      const Pair pair = pairs[p];
      const Tag tag = base + p;
      const std::uint8_t* data = in.payload(tag);
      SendHandle* slot = &sends[p];
      events.at(due[p], [&world, slot, pair, tag, data] {
        *slot = send(world.engine(pair.src), pair.dst, tag, data, kTorusBytes);
      });
    }
    for (std::size_t p = 0; p < n; ++p) {
      const RecvHandle& r = recvs[p];
      run_until(events, [&r] { return r->done(); });
    }
    CheckSpan span(pass);
    if (round == 0) pass.first_due = *std::min_element(due.begin(), due.end());
    for (std::size_t p = 0; p < n; ++p) {
      const std::uint64_t index = base + p;
      const Delivery d = delivery_of(recvs[p], kTorusBytes, rx.data() + p * kTorusBytes,
                                     in.payload(index), due[p]);
      check.delivery(index, d);
      if (d.recv_done) {
        check.latency_floor(index, d.complete - d.due,
                            static_cast<SimDuration>(pairs[p].hops) * wire_ns);
      }
      note(pass, d);
    }
    check.sends_done(sends_not_done(sends));
    pass.framing_bytes += eager_framing(sends, world.engine(0).rdv_threshold());
  }
  run_all(events);
  pass.timer.stop();

  pass.messages = static_cast<std::uint64_t>(kTorusRounds) * n;
  pass.payload_bytes = pass.messages * kTorusBytes;
  check_after(pass, [&] {
    check.forwarded(world.fabric().forwarded_segments(), hop_excess * kTorusRounds);
  });
}

// -- receive buffers for the two-node workloads -------------------------------

/// Fixed-size receive buffers recycled across passes, so the timed region
/// never allocates or first-touches benchmark memory after the warm-up pass.
class BufferPool {
 public:
  std::uint8_t* take() {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<std::uint8_t[]>(kMaxMessage));
      return owned_.back().get();
    }
    std::uint8_t* p = free_.back();
    free_.pop_back();
    return p;
  }
  void give(std::uint8_t* p) { free_.push_back(p); }

 private:
  std::vector<std::unique_ptr<std::uint8_t[]>> owned_;
  std::vector<std::uint8_t*> free_;
};

BufferPool& buffers() {
  static BufferPool pool;
  return pool;
}

// -- testbed_loaded ------------------------------------------------------------
// The paper's testbed (Myri-10G + QsNetII), hetero-split, node 0 -> node 1 in
// an open loop: sizes log-uniform in [8 KiB, 512 KiB], exponential gaps whose
// mean offers 1400 MB/s. Each message's receive is posted and its send issued
// at its due time, whether or not earlier messages have finished.
//
// The schedule (sizes and gaps) comes from a fixed seed; the run's seed draws
// the payload and a jitter below 1 us on each due time. At this load the
// chunk watchdog misfires, and its quarantines make latency and simulator
// cost swing several-fold from one drawn schedule to the next, so every run
// replays the same episode instead.

constexpr unsigned kLoadedMessages = 2000;
constexpr double kOfferedMbps = 1400.0;
constexpr std::size_t kLoadedMin = 8u * 1024u;
constexpr std::uint64_t kScheduleSeed = 1;
constexpr std::uint64_t kLoadedJitterNs = 1000;

WorldConfig loaded_config(std::uint64_t) {
  return rails::core::paper_testbed("hetero-split");
}

void run_loaded(World& world, const Inputs& in, Checker& check, Pass& pass) {
  const double log_lo = std::log(static_cast<double>(kLoadedMin));
  const double log_hi = std::log(static_cast<double>(kMaxMessage));
  const double mean_size =
      static_cast<double>(kMaxMessage - kLoadedMin) / (log_hi - log_lo);
  const double mean_gap_ns = mean_size / kOfferedMbps * 1e3;

  struct State {
    World* world = nullptr;
    const Inputs* in = nullptr;
    std::vector<SimTime> due;
    std::vector<std::size_t> len;
    std::vector<std::uint8_t*> buf;
    std::vector<RecvHandle> recvs;
    std::vector<SendHandle> sends;
  } st;
  st.world = &world;
  st.in = &in;
  st.due.resize(kLoadedMessages);
  st.len.resize(kLoadedMessages);
  st.buf.assign(kLoadedMessages, nullptr);
  st.recvs.resize(kLoadedMessages);
  st.sends.resize(kLoadedMessages);
  SimTime t = world.now();
  for (unsigned i = 0; i < kLoadedMessages; ++i) {
    const double gap = -std::log(std::max(1e-12, unit(draw(kScheduleSeed, kGap, i))));
    t += static_cast<SimDuration>(gap * mean_gap_ns);
    st.due[i] = t + static_cast<SimDuration>(draw(in.seed, kSkew, i) % kLoadedJitterNs);
    const double size = std::exp(log_lo + unit(draw(kScheduleSeed, kSize, i)) * (log_hi - log_lo));
    st.len[i] = std::clamp(static_cast<std::size_t>(size), kLoadedMin, kMaxMessage);
    pass.payload_bytes += st.len[i];
  }
  pass.messages = kLoadedMessages;
  pass.sending_nodes = 1;
  pass.first_due = *std::min_element(st.due.begin(), st.due.end());
  auto& events = world.fabric().events();

  pass.timer.start();
  for (unsigned i = 0; i < kLoadedMessages; ++i) {
    State* s = &st;
    events.at(st.due[i], [s, i] {
      s->buf[i] = buffers().take();
      s->recvs[i] = recv(s->world->engine(1), 0, i, s->buf[i], s->len[i]);
      s->sends[i] = send(s->world->engine(0), 1, i, s->in->payload(i), s->len[i]);
    });
  }
  for (unsigned i = 0; i < kLoadedMessages; ++i) {
    const RecvHandle& r = st.recvs[i];
    run_until(events, [&r] { return r && r->done(); });
    CheckSpan span(pass);
    const Delivery d = delivery_of(r, st.len[i], st.buf[i], in.payload(i), st.due[i]);
    check.delivery(i, d);
    note(pass, d);
    if (st.buf[i] != nullptr) buffers().give(st.buf[i]);
    st.recvs[i] = nullptr;
  }
  run_all(events);
  pass.timer.stop();
  check_after(pass, [&] {
    check.sends_done(sends_not_done(st.sends));
    pass.framing_bytes = eager_framing(st.sends, world.engine(0).rdv_threshold());
  });
}

// -- chaos_reliable ------------------------------------------------------------
// The paper's testbed with aggregate-fastest and end-to-end reliability on.
// Every NIC, both directions, drops 2 %, corrupts 0.1 %, duplicates 1 % and
// reorders within 4 wire latencies (the chaos_soak storm). Traffic is
// chaos_soak's mix - 70 % 64..2048 B, 20 % 16 KiB, 10 % 256 KiB - in waves of
// 256 messages posted at once; a wave starts when the previous one drained.
// The seed draws the fault RNG, the small sizes and the order in each wave.

constexpr unsigned kWave = 256;
constexpr unsigned kChaosWaves = 256;
constexpr unsigned kChaosSmall = 179;
constexpr unsigned kChaosMedium = 51;
constexpr std::size_t kChaosLarge = 256u * 1024u;

WorldConfig chaos_config(std::uint64_t seed) {
  WorldConfig cfg = rails::core::paper_testbed("aggregate-fastest");
  cfg.engine.reliability.enabled = true;
  cfg.fabric.fault_seed = seed;
  return cfg;
}

void arm_chaos(World& world) {
  using rails::fabric::FaultKind;
  using rails::fabric::FaultSpec;
  const auto spec = [](FaultKind kind, double rate, unsigned window) {
    FaultSpec f;
    f.kind = kind;
    f.rate = rate;
    f.reorder_window = window;
    return f;
  };
  for (NodeId n = 0; n < world.fabric().node_count(); ++n) {
    for (rails::RailId r = 0; r < world.fabric().rail_count(); ++r) {
      auto& nic = world.fabric().nic(n, r);
      nic.inject_fault(spec(FaultKind::kDrop, 0.02, 0));
      nic.inject_fault(spec(FaultKind::kCorrupt, 0.001, 0));
      nic.inject_fault(spec(FaultKind::kDup, 0.01, 0));
      nic.inject_fault(spec(FaultKind::kReorder, 1.0, 4));
    }
  }
}

/// Message sizes of one pass. Every wave holds chaos_soak's proportions
/// exactly - 179 small (64..2048 B), 51 x 16 KiB, 26 x 256 KiB - in a seeded
/// order, so the bytes per wave do not swing with the draw.
std::vector<std::size_t> chaos_sizes(std::uint64_t seed) {
  std::vector<std::size_t> len;
  len.reserve(static_cast<std::size_t>(kWave) * kChaosWaves);
  for (unsigned wave = 0; wave < kChaosWaves; ++wave) {
    const std::size_t base = len.size();
    for (unsigned i = 0; i < kWave; ++i) {
      const std::uint64_t index = base + i;
      len.push_back(i < kChaosSmall ? 64 + draw(seed, kSize, index) % (2048 - 64 + 1)
                    : i < kChaosSmall + kChaosMedium ? 16u * 1024u
                                                     : kChaosLarge);
    }
    for (std::size_t i = kWave - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(len[base + i], len[base + draw(seed, kGap, base + i) % (i + 1)]);
    }
  }
  return len;
}

void run_chaos(World& world, const Inputs& in, Checker& check, Pass& pass) {
  static std::vector<std::uint8_t> rx(static_cast<std::size_t>(kWave) * kChaosLarge);
  const std::vector<std::size_t> len = chaos_sizes(in.seed);
  for (std::size_t l : len) pass.payload_bytes += l;
  std::vector<RecvHandle> recvs(kWave);
  std::vector<SendHandle> sends(kWave);
  pass.messages = len.size();
  pass.sending_nodes = 1;
  auto& events = world.fabric().events();

  pass.timer.start();
  for (unsigned wave = 0; wave < kChaosWaves; ++wave) {
    const std::uint64_t base = static_cast<std::uint64_t>(wave) * kWave;
    const SimTime due = world.now();
    if (wave == 0) pass.first_due = due;
    for (unsigned i = 0; i < kWave; ++i) {
      const std::uint64_t index = base + i;
      recvs[i] = recv(world.engine(1), 0, index, rx.data() + i * kChaosLarge, len[index]);
      sends[i] = send(world.engine(0), 1, index, in.payload(index), len[index]);
    }
    for (unsigned i = 0; i < kWave; ++i) {
      const RecvHandle& r = recvs[i];
      run_until(events, [&r] { return r->done(); });
    }
    run_all(events);  // retransmit timers, delayed ACKs, late duplicates
    CheckSpan span(pass);
    for (unsigned i = 0; i < kWave; ++i) {
      const std::uint64_t index = base + i;
      const Delivery d = delivery_of(recvs[i], len[index], rx.data() + i * kChaosLarge,
                                     in.payload(index), due);
      check.delivery(index, d);
      note(pass, d);
    }
    check.sends_done(sends_not_done(sends));
  }
  pass.timer.stop();
}

constexpr std::array<Workload, 3> kWorkloads = {{
    {"torus_eager", torus_config, nullptr, run_torus, true, 1},
    {"testbed_loaded", loaded_config, nullptr, run_loaded, true, 1},
    {"chaos_reliable", chaos_config, arm_chaos, run_chaos, false, 4},
}};

}  // namespace

Inputs::Inputs(std::uint64_t s) : seed(s), tape(kOffsetSpan + kMaxMessage) {
  for (std::size_t i = 0; i < tape.size(); i += 8) {
    const std::uint64_t bits = draw(seed, kTape, i / 8);
    for (std::size_t b = 0; b < 8 && i + b < tape.size(); ++b) {
      tape[i + b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
  }
}

std::size_t Inputs::payload_offset(std::uint64_t index) const {
  return static_cast<std::size_t>(draw(seed, kOffset, index) % kOffsetSpan);
}

std::uint64_t episode_seed(std::uint64_t seed, unsigned episode) {
  return episode == 0 ? seed : draw(seed, kEpisode, episode);
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
