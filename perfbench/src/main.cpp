// rails_perfbench: runs one named workload for a fixed host time and prints
// one JSON result line.
//
//   rails_perfbench --workload <torus_eager|testbed_loaded|chaos_reliable>
//                   --seed <n> --seconds <s> --trace <0|1> [--inject <fault>]
//
// A run builds one World cold (set-up time), then repeats the workload's pass
// on fresh Worlds until --seconds have elapsed, cycling through the
// workload's episodes (distinct seeded inputs). The first pass of each
// episode gives the virtual-clock results, and every later pass of that
// episode must replay them exactly. Pass 0 is the warm-up; host-clock
// figures come from the later passes.
//
// --trace 0 prints the end-to-end metrics; --trace 1 installs the layer spans
// on the timed passes and prints the per-layer metrics instead. --inject
// feeds the checker one wrong output (self-test); such a run must fail.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/strategies.hpp"
#include "core/world.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr unsigned kMinTimedPasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Inject inject = Inject::kNone;
};

bool parse(int argc, char** argv, Options* o) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && o->seconds >= 0.0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o->trace = val == "1";
    } else if (key == "--inject") {
      bool ok = false;
      o->inject = parse_inject(val, &ok);
      if (!ok) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/// Linear interpolation between closest ranks.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50.0);
}

/// Library counters of one pass, summed over every engine of the World.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t spills = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t chunk_timeouts = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t reprobes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::uint64_t drops_inferred = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t reposted = 0;    ///< failover re-posts (EngineStats::retries)
  std::uint64_t delivered = 0;   ///< payload bytes the fabric delivered
  std::vector<std::uint64_t> rail_bytes;
};

Counters& operator+=(Counters& a, const Counters& b) {
  a.events += b.events;
  a.forwarded += b.forwarded;
  a.spills += b.spills;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.chunk_timeouts += b.chunk_timeouts;
  a.quarantines += b.quarantines;
  a.reprobes += b.reprobes;
  a.retransmits += b.retransmits;
  a.acks += b.acks;
  a.drops_inferred += b.drops_inferred;
  a.dup_suppressed += b.dup_suppressed;
  a.reposted += b.reposted;
  a.delivered += b.delivered;
  a.rail_bytes.resize(std::max(a.rail_bytes.size(), b.rail_bytes.size()), 0);
  for (std::size_t r = 0; r < b.rail_bytes.size(); ++r) a.rail_bytes[r] += b.rail_bytes[r];
  return a;
}

Counters read_counters(rails::core::World& world) {
  Counters c;
  auto& fabric = world.fabric();
  c.events = fabric.events().processed();
  c.forwarded = fabric.forwarded_segments();
  c.spills = fabric.events().handler_spills();
  c.rail_bytes.assign(fabric.rail_count(), 0);
  for (rails::RailId r = 0; r < fabric.rail_count(); ++r) c.delivered += fabric.delivered_payload(r);
  for (rails::NodeId n = 0; n < fabric.node_count(); ++n) {
    const rails::core::EngineStats& s = world.engine(n).stats();
    c.cache_hits += s.strategy_cache_hits;
    c.cache_misses += s.strategy_cache_misses;
    c.chunk_timeouts += s.chunk_timeouts;
    c.quarantines += s.quarantines;
    c.reprobes += s.reprobes;
    c.retransmits += s.rel_retransmits;
    c.acks += s.rel_acks;
    c.drops_inferred += s.rel_drops_inferred;
    c.dup_suppressed += s.rel_dup_suppressed;
    c.reposted += s.retries;
    for (std::size_t r = 0; r < c.rail_bytes.size() && r < s.payload_bytes_per_rail.size();
         ++r) {
      c.rail_bytes[r] += s.payload_bytes_per_rail[r];
    }
  }
  return c;
}

/// Highest goodput the sending NICs could reach: each rail at the faster of
/// its PIO and DMA peak bandwidths (MB/s), times the number of senders.
double goodput_bound(rails::core::World& world, std::uint64_t sending_nodes) {
  double per_node = 0.0;
  for (const auto& rail : world.fabric().config().rails) {
    per_node += std::max({rail.pio_bw_mbps, rail.pio_bw_large_mbps, rail.dma_bw_mbps});
  }
  return per_node * static_cast<double>(sending_nodes);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second.value, metrics[i].second.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: rails_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--inject none|flip-byte|missing-delivery|goodput]\n");
    return 2;
  }
  const Workload* wl = find_workload(opt.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // Cold set-up: inputs, World (NIC sampling, routes, engines), faults.
  const unsigned episodes = wl->episodes;
  std::vector<std::unique_ptr<Inputs>> inputs(episodes);
  inputs[0] = std::make_unique<Inputs>(opt.seed);
  const auto build = [&](unsigned episode) {
    auto world = std::make_unique<rails::core::World>(
        wl->config(episode_seed(opt.seed, episode)));
    if (wl->arm != nullptr) wl->arm(*world);
    return world;
  };
  std::unique_ptr<rails::core::World> world = build(0);
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - process_start).count();

  const std::string strategy_name = wl->config(opt.seed).strategy;
  Checker check(opt.inject);
  const auto measure_start = Clock::now();
  std::uint64_t attempted = 0;
  // Virtual-clock results, pooled over the first pass of every episode.
  std::vector<std::uint64_t> reference(episodes);
  std::vector<double> pooled_latency;
  double pooled_bytes = 0.0, pooled_span_ns = 0.0;
  // Host-clock and per-layer samples of the timed passes.
  std::vector<double> msgs_per_s, allocs_per_msg, check_s;
  std::array<std::vector<double>, kLayerCount> layer_s;
  // Counts of the first timed pass of every episode (passes 1..episodes).
  LayerTotals layer_counts;
  Counters counts;
  std::uint64_t counted_messages = 0;
  for (unsigned pass_no = 0;; ++pass_no) {
    const unsigned episode = pass_no % episodes;
    if (inputs[episode] == nullptr) {
      inputs[episode] = std::make_unique<Inputs>(episode_seed(opt.seed, episode));
    }
    if (pass_no > 0) {
      world.reset();
      world = build(episode);
    }
    const bool traced = opt.trace && pass_no > 0;
    if (traced) {
      for (rails::NodeId n = 0; n < world->fabric().node_count(); ++n) {
        world->engine(n).set_strategy(
            timed_strategy(rails::core::make_strategy(strategy_name)));
      }
    }
    set_tracing(traced);
    Pass pass;
    wl->run(*world, *inputs[episode], check, pass);
    set_tracing(false);
    const LayerTotals layers = take_layer_totals();
    attempted += pass.messages;

    const Counters c = read_counters(*world);
    const double span_ns = static_cast<double>(pass.last_complete - pass.first_due);
    check_after(pass, [&] {
      if (wl->fault_free) {
        std::uint64_t posted = 0;
        for (std::uint64_t b : c.rail_bytes) posted += b;
        check.rail_bytes(posted, c.delivered, pass.payload_bytes, pass.framing_bytes,
                         c.reposted);
      }
      const double pass_goodput =
          span_ns > 0 ? static_cast<double>(pass.payload_bytes) * 1e3 / span_ns : 0.0;
      check.goodput(pass_goodput, goodput_bound(*world, pass.sending_nodes));
      std::uint64_t fp = 0xcbf29ce484222325ULL;
      for (rails::SimDuration l : pass.latencies) fp = fnv(fp, static_cast<std::uint64_t>(l));
      for (std::uint64_t v : {c.events, c.forwarded, c.cache_hits, c.chunk_timeouts,
                              c.retransmits, c.acks, static_cast<std::uint64_t>(span_ns)}) {
        fp = fnv(fp, v);
      }
      if (pass_no < episodes) {
        reference[episode] = fp;
        pooled_latency.insert(pooled_latency.end(), pass.latencies.begin(),
                              pass.latencies.end());
        pooled_bytes += static_cast<double>(pass.payload_bytes);
        pooled_span_ns += span_ns;
      } else {
        check.replay(fp, reference[episode]);
      }
    });
    if (!check.ok()) break;

    if (pass_no > 0) {
      msgs_per_s.push_back(static_cast<double>(pass.messages) / pass.timer.seconds());
      allocs_per_msg.push_back(static_cast<double>(pass.timer.allocs()) /
                               static_cast<double>(pass.messages));
      check_s.push_back(pass.check_s);
      for (std::size_t l = 0; l < kLayerCount; ++l) layer_s[l].push_back(layers.self_s[l]);
    }
    if (pass_no >= 1 && pass_no <= episodes) {
      layer_counts += layers;
      counts += c;
      counted_messages += pass.messages;
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - measure_start).count();
    if (pass_no >= std::max(kMinTimedPasses, episodes) && elapsed >= opt.seconds) break;
  }

  std::sort(pooled_latency.begin(), pooled_latency.end());
  const double p50_us = percentile(pooled_latency, 50.0) / 1e3;
  const double p99_us = percentile(pooled_latency, 99.0) / 1e3;
  const double goodput = pooled_span_ns > 0 ? pooled_bytes * 1e3 / pooled_span_ns : 0.0;
  const bool correct = check.ok();
  if (!correct) std::fprintf(stderr, "check failed: %s\n", check.first_failure().c_str());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  // Simulator speed (median of the timed passes) is a host-clock figure that
  // other tenants of the host move by a quarter from one minute to the next,
  // so it is reported here, on stderr, and not gated as a metric.
  const double rate = median(msgs_per_s);
  std::fprintf(stderr,
               "%s seed=%llu passes=%zu sim_msgs_per_s=%.6g%s setup_s=%.4g "
               "peak_rss_mb=%.1f p50_us=%.6g p99_us=%.6g goodput_mbps=%.6g\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               msgs_per_s.size() + 1, rate, opt.trace ? " (traced)" : "", setup_s,
               peak_rss_mb, p50_us, p99_us, goodput);

  std::vector<std::pair<std::string, Metric>> out;
  if (!opt.trace) {
    out = {
        {"setup_s", {setup_s, "s"}},
        {"peak_rss_mb", {peak_rss_mb, "MB"}},
        {"virtual_p50_latency_us", {p50_us, "us"}},
        {"virtual_p99_latency_us", {p99_us, "us"}},
        {"virtual_goodput_mbps", {goodput, "MB/s"}},
    };
  } else {
    // Counts are per pass, averaged over the episodes.
    const auto count = [&](std::uint64_t v) {
      return static_cast<double>(v) / static_cast<double>(episodes);
    };
    const auto per_msg = [&](std::uint64_t v) {
      return counted_messages > 0
                 ? static_cast<double>(v) / static_cast<double>(counted_messages)
                 : 0.0;
    };
    out = {
        {"core.submit_s", {median(layer_s[0]), "s"}},
        {"core.submit_calls", {count(layer_counts.submit_calls), "count"}},
        {"strategy.plan_s", {median(layer_s[1]), "s"}},
        {"strategy.plan_eager_calls", {count(layer_counts.plan_eager_calls), "count"}},
        {"strategy.plan_rendezvous_calls",
         {count(layer_counts.plan_rendezvous_calls), "count"}},
        {"strategy.cache_hits", {count(counts.cache_hits), "count"}},
        {"strategy.cache_misses", {count(counts.cache_misses), "count"}},
        {"fabric.loop_self_s", {median(layer_s[2]), "s"}},
        {"fabric.events_per_msg", {per_msg(counts.events), "events/msg"}},
        {"fabric.forwarded_per_msg", {per_msg(counts.forwarded), "segments/msg"}},
        {"fabric.handler_spills", {count(counts.spills), "count"}},
        {"nic.rail0_mbytes",
         {counts.rail_bytes.size() > 0 ? count(counts.rail_bytes[0]) / 1e6 : 0.0, "MB"}},
        {"nic.rail1_mbytes",
         {counts.rail_bytes.size() > 1 ? count(counts.rail_bytes[1]) / 1e6 : 0.0, "MB"}},
        {"failover.chunk_timeouts", {count(counts.chunk_timeouts), "count"}},
        {"failover.quarantines", {count(counts.quarantines), "count"}},
        {"failover.reprobes", {count(counts.reprobes), "count"}},
        {"reliability.retransmits", {count(counts.retransmits), "count"}},
        {"reliability.acks", {count(counts.acks), "count"}},
        {"reliability.drops_inferred", {count(counts.drops_inferred), "count"}},
        {"reliability.dup_suppressed", {count(counts.dup_suppressed), "count"}},
        {"host.allocs_per_msg", {median(allocs_per_msg), "allocs/msg"}},
        {"bench.check_s", {median(check_s), "s"}},
    };
  }
  print_result(correct, attempted, check.failed_messages(), out);
  return correct ? 0 : 1;
}
