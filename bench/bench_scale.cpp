// Fat-tree scaling benchmark: the sharded simulator on the topologies the
// per-shard arenas, adaptive windows and batched cross-shard drains were
// built for.  Two modes:
//
//   bench_scale --smoke          k=8 fat-tree, short websearch run,
//                                DCP_SHARDS 1 vs 2; asserts bit-identical
//                                digests + events_processed and nonzero
//                                arena accounting.  Fast enough for CI.
//   bench_scale [--merge FILE]   k=16 websearch run to >= 100M events with
//                                DCP_SHARDS 1 and 8 (identity checked),
//                                per-shard utilization, then a k=32 build
//                                gated on peak RSS < 8 GB.  With --merge,
//                                the entries are spliced into an existing
//                                BENCH_core.json (bench_core owns the rest
//                                of the file).
//
// Speedup gates are core-count-aware: on a single-core runner the window
// barriers make sharding *slower* than serial (everything serializes onto
// one thread plus handshake overhead), so the 2-shard smoke gate needs
// >= 4 hardware threads and the full-mode 8-shard >= 3x gate needs >= 8.
// Identity gates run unconditionally — determinism does not need cores.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/scheme.h"
#include "sim/shard.h"
#include "stats/core_perf.h"
#include "topo/fattree.h"
#include "topo/network.h"
#include "workload/flowgen.h"

namespace {

using namespace dcp;

// --- Run digest -------------------------------------------------------------

/// FNV-1a over every flow's completion record.  Any divergence in timing,
/// retransmission behaviour or delivery between DCP_SHARDS settings lands
/// in here — the sharded run must reproduce the exact serial interleaving.
struct RunDigest {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t flows_completed = 0;
  std::uint64_t events = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  bool operator==(const RunDigest&) const = default;
};

struct ScaleRun {
  CorePerf perf;
  RunDigest digest;
  std::vector<double> shard_utilization;  // busy_ns / wall, per shard
};

/// One websearch-on-fat-tree measurement.  The configuration is identical
/// across `shards` values — same seed, same flow set, same max_time — so
/// the digest comparison is apples to apples.
ScaleRun scale_run(int k, int shards, std::size_t num_flows, Time max_time) {
  ShardGroup group(shards);
  Logger log(LogLevel::kOff);
  Network net(group, log);

  SchemeSetup s = make_scheme(SchemeKind::kDcp, SchemeOptions{});
  s.sw.inject_loss_rate = 0.005;
  FatTreeParams fp;
  fp.k = k;
  fp.sw = s.sw;
  FatTreeTopology topo = build_fattree(net, fp);
  apply_scheme(net, s);

  FlowGenParams fg;
  fg.load = 0.4;
  fg.num_flows = num_flows;
  fg.seed = 7;
  generate_poisson_flows(net, topo.hosts, SizeDist::websearch(), fg);

  CorePerfTimer timer(group);
  net.run_until_done(max_time);
  ScaleRun r;
  r.perf = timer.finish();

  for (const FlowRecord& rec : net.records()) {
    if (rec.complete()) ++r.digest.flows_completed;
    r.digest.mix(static_cast<std::uint64_t>(rec.tx_done));
    r.digest.mix(static_cast<std::uint64_t>(rec.rx_done));
    r.digest.mix(rec.sender.data_packets_sent);
    r.digest.mix(rec.sender.retransmitted_packets);
    r.digest.mix(rec.sender.timeouts);
    r.digest.mix(rec.receiver.bytes_received);
    r.digest.mix(rec.receiver.out_of_order_packets);
  }
  r.digest.events = r.perf.events_processed;

  const double wall_ns = r.perf.wall_seconds * 1e9;
  for (int i = 0; i < group.size(); ++i) {
    r.shard_utilization.push_back(
        wall_ns > 0.0 ? static_cast<double>(group.busy_ns(i)) / wall_ns : 0.0);
  }
  return r;
}

void print_run(const char* name, const ScaleRun& r) {
  std::printf("%-28s events=%llu wall=%.3fs events/sec=%.3gM arena=%.1fMB rss=%.1fMB\n", name,
              static_cast<unsigned long long>(r.perf.events_processed), r.perf.wall_seconds,
              r.perf.events_per_sec() / 1e6, static_cast<double>(r.perf.arena_bytes) / 1e6,
              static_cast<double>(r.perf.peak_rss_bytes) / 1e6);
  if (r.shard_utilization.size() > 1) {
    std::printf("%-28s ", "  shard utilization");
    for (double u : r.shard_utilization) std::printf(" %.0f%%", u * 100.0);
    std::printf("\n");
  }
}

/// Identity gate: the sharded run must be bit-for-bit the serial run.
bool check_identical(const char* what, const ScaleRun& serial, const ScaleRun& sharded) {
  if (serial.digest == sharded.digest) {
    std::printf("%s: digests identical (%016llx), events identical (%llu)\n", what,
                static_cast<unsigned long long>(serial.digest.hash),
                static_cast<unsigned long long>(serial.digest.events));
    return true;
  }
  std::fprintf(stderr,
               "%s: DIVERGED  serial hash=%016llx events=%llu completed=%llu  "
               "sharded hash=%016llx events=%llu completed=%llu\n",
               what, static_cast<unsigned long long>(serial.digest.hash),
               static_cast<unsigned long long>(serial.digest.events),
               static_cast<unsigned long long>(serial.digest.flows_completed),
               static_cast<unsigned long long>(sharded.digest.hash),
               static_cast<unsigned long long>(sharded.digest.events),
               static_cast<unsigned long long>(sharded.digest.flows_completed));
  return false;
}

// --- BENCH_core.json splice -------------------------------------------------

/// Serializes one entry in export_core_perf_json's exact field layout so a
/// spliced file is indistinguishable from one bench_core wrote itself.
std::string entry_json(const CorePerfEntry& e) {
  char buf[1024];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "    {\n"
                "      \"name\": \"%s\",\n"
                "      \"events_processed\": %llu,\n"
                "      \"wall_seconds\": %.6f,\n"
                "      \"events_per_sec\": %.0f",
                e.name.c_str(), static_cast<unsigned long long>(e.perf.events_processed),
                e.perf.wall_seconds, e.perf.events_per_sec());
  out += buf;
  if (e.baseline_events_per_sec > 0.0) {
    std::snprintf(buf, sizeof buf,
                  ",\n      \"seed_events_per_sec\": %.0f,\n      \"speedup_vs_seed\": %.2f",
                  e.baseline_events_per_sec, e.perf.events_per_sec() / e.baseline_events_per_sec);
    out += buf;
  }
  if (e.perf.arena_bytes > 0) {
    std::snprintf(buf, sizeof buf, ",\n      \"arena_bytes\": %llu",
                  static_cast<unsigned long long>(e.perf.arena_bytes));
    out += buf;
  }
  if (e.perf.peak_rss_bytes > 0) {
    std::snprintf(buf, sizeof buf, ",\n      \"peak_rss_bytes\": %llu",
                  static_cast<unsigned long long>(e.perf.peak_rss_bytes));
    out += buf;
  }
  if (e.shards > 0) {
    std::snprintf(buf, sizeof buf, ",\n      \"shards\": %u,\n      \"hardware_threads\": %u",
                  e.shards, e.hardware_threads);
    out += buf;
  }
  out += "\n    }";
  return out;
}

/// Splices scale entries into an existing BENCH_core.json: drops any prior
/// scale_* entries (re-runs replace, not append), then inserts before the
/// benchmarks array's closing bracket.  The file format is fully owned by
/// export_core_perf_json, so a text splice is exact.
bool merge_into(const std::string& path, const std::vector<CorePerfEntry>& entries) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "--merge: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string doc = ss.str();

  // Drop stale scale_* entries: each spans from its "    {\n      \"name\":
  // \"scale_" line to the matching "    }" (plus a trailing comma if any).
  for (std::string::size_type at;
       (at = doc.find("    {\n      \"name\": \"scale_")) != std::string::npos;) {
    std::string::size_type end = doc.find("\n    }", at);
    if (end == std::string::npos) return false;
    end += std::strlen("\n    }");
    if (doc.compare(end, 1, ",") == 0) ++end;
    if (doc.compare(end, 1, "\n") == 0) ++end;
    doc.erase(at, end - at);
  }
  // A removed tail entry can leave ",\n  ]" behind; normalize.
  const std::string dangling = ",\n  ]";
  if (std::string::size_type at = doc.find(dangling); at != std::string::npos) {
    doc.replace(at, dangling.size(), "\n  ]");
  }

  const std::string close = "\n  ]";
  const std::string::size_type at = doc.find(close);
  if (at == std::string::npos) {
    std::fprintf(stderr, "--merge: no benchmarks array in %s\n", path.c_str());
    return false;
  }
  std::string insert;
  for (const CorePerfEntry& e : entries) insert += ",\n" + entry_json(e);
  doc.insert(at, insert);

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << doc;
  return true;
}

// --- Modes ------------------------------------------------------------------

int run_smoke() {
  // k=8: 128 hosts, 80 switches — builds in milliseconds, and the bounded
  // run keeps CI wall time down while still crossing every shard cut.
  const int kK = 8;
  const std::size_t kFlows = 256;
  const Time kMax = milliseconds(5);

  const ScaleRun serial = scale_run(kK, 1, kFlows, kMax);
  const ScaleRun sharded = scale_run(kK, 2, kFlows, kMax);
  print_run("smoke_fattree_k8", serial);
  print_run("smoke_fattree_k8_sharded", sharded);

  bool ok = check_identical("smoke k=8 shards 1 vs 2", serial, sharded);
  if (serial.perf.arena_bytes == 0 || sharded.perf.arena_bytes == 0) {
    std::fprintf(stderr, "smoke: arena accounting came back zero\n");
    ok = false;
  }
  const unsigned threads = std::thread::hardware_concurrency();
  if (threads >= 4) {
    const double speedup = sharded.perf.events_per_sec() / serial.perf.events_per_sec();
    std::printf("smoke speedup: %.2fx on %u hardware threads\n", speedup, threads);
    if (speedup < 1.2) {
      std::fprintf(stderr, "smoke: sharded %.2fx < 1.2x with %u threads\n", speedup, threads);
      ok = false;
    }
  } else {
    std::printf("smoke speedup gate skipped (%u hardware threads < 4)\n", threads);
  }
  std::printf("bench_scale --smoke %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

int run_full(const char* merge_path) {
  const unsigned threads = std::thread::hardware_concurrency();
  bool ok = true;

  // k=16: 1024 hosts.  The flow count is sized so the run crosses the
  // 100M-event floor with margin (measured ~9-10k events per websearch
  // flow on this configuration).
  const int kK = 16;
  const std::size_t kFlows = 15000;
  const Time kMax = seconds(5);

  std::printf("k=16 fat-tree (%d hosts), %zu websearch flows, DCP_SHARDS=1...\n",
              kK * kK * kK / 4, kFlows);
  const ScaleRun serial = scale_run(kK, 1, kFlows, kMax);
  print_run("scale_fattree_k16", serial);
  if (serial.perf.events_processed < 100'000'000ull) {
    std::fprintf(stderr, "k=16 run processed %llu events < 100M floor\n",
                 static_cast<unsigned long long>(serial.perf.events_processed));
    ok = false;
  }

  std::printf("k=16 fat-tree, DCP_SHARDS=8...\n");
  const ScaleRun sharded = scale_run(kK, 8, kFlows, kMax);
  print_run("scale_fattree_k16_sharded", sharded);
  ok = check_identical("k=16 shards 1 vs 8", serial, sharded) && ok;

  const double speedup = sharded.perf.events_per_sec() / serial.perf.events_per_sec();
  if (threads >= 8) {
    std::printf("k=16 speedup: %.2fx on %u hardware threads\n", speedup, threads);
    if (speedup < 3.0) {
      std::fprintf(stderr, "k=16 sharded %.2fx < 3.0x with %u threads\n", speedup, threads);
      ok = false;
    }
  } else {
    std::printf("k=16 speedup %.2fx — gate skipped (%u hardware threads < 8)\n", speedup,
                threads);
  }

  // k=32: 8192 hosts, 1536 switches.  A short run — the gate is memory,
  // not throughput: build + route state + arenas must stay under 8 GB.
  // Runs last, so ru_maxrss (process-wide high water) covering it also
  // covers the smaller k=16 runs; the gate is conservative-safe.
  std::printf("k=32 fat-tree (%d hosts), memory smoke...\n", 32 * 32 * 32 / 4);
  const ScaleRun k32 = scale_run(32, 8, 2000, milliseconds(2));
  print_run("scale_fattree_k32_smoke", k32);
  if (k32.perf.peak_rss_bytes >= 8ull << 30) {
    std::fprintf(stderr, "k=32 peak RSS %.2f GB >= 8 GB\n",
                 static_cast<double>(k32.perf.peak_rss_bytes) / (1ull << 30));
    ok = false;
  }

  std::vector<CorePerfEntry> entries;
  entries.push_back({"scale_fattree_k16", serial.perf, 0.0});
  CorePerfEntry sh{"scale_fattree_k16_sharded", sharded.perf, serial.perf.events_per_sec()};
  sh.shards = 8;
  sh.hardware_threads = threads;
  entries.push_back(sh);
  CorePerfEntry k32e{"scale_fattree_k32_smoke", k32.perf, 0.0};
  k32e.shards = 8;
  k32e.hardware_threads = threads;
  entries.push_back(k32e);

  if (merge_path != nullptr) {
    const bool merged = merge_into(merge_path, entries);
    std::printf("merge into %s %s\n", merge_path, merged ? "done" : "FAILED");
    ok = ok && merged;
  } else {
    const bool wrote = export_core_perf_json("BENCH_scale.json", entries);
    std::printf("BENCH_scale.json %s\n", wrote ? "written" : "FAILED");
    ok = ok && wrote;
  }
  std::printf("bench_scale %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* merge_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--merge") == 0 && i + 1 < argc) {
      merge_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--merge BENCH_core.json]\n", argv[0]);
      return 2;
    }
  }
  return smoke ? run_smoke() : run_full(merge_path);
}
