// End-to-end benchmark of the DCP simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--shards K] [--jobs J] [--trace-dir DIR] [--tiny 0|1]
//   perfbench --selftest
//
// One process runs one named workload (websearch_clos, fattree_k8_sharded
// or incast_sweep; see README.md for why each exists).  The seed places the
// workload's flow traces onto the fabric's hosts; the library only receives
// the generated flows.  The workload is repeated for S seconds and the
// medians are reported: run_s as CPU seconds of the run (wall seconds of
// the sweep on incast_sweep), setup_s as CPU seconds of the building
// thread.  --tiny 1 shrinks the inputs to a smoke test.
// Every invocation also runs the correctness gates: every flow completes
// with exactly its bytes, repeated runs agree bit for bit, an oracle-armed
// run is clean, a traced run matches the untraced one, and the sharded
// fat-tree matches its 1-shard run.  A failed gate makes the exit code 1.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the span file of the
// traced runs is written to DIR (Chrome trace-event JSON).
//
// The benchmark drives the library through its public functions only and
// times the calls into each layer from outside.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/broken.h"
#include "check/invariant_oracle.h"
#include "harness/scheme.h"
#include "harness/sweep.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "stats/core_perf.h"
#include "stats/fct_stats.h"
#include "stats/percentile.h"
#include "summary.h"
#include "spans.h"
#include "topo/clos.h"
#include "topo/fattree.h"
#include "topo/network.h"
#include "workload/flowgen.h"
#include "workload/incast.h"

namespace {

using namespace dcp;
using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::Summary;
using perfbench::summarize;
using perfbench::Tracer;

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

struct Machine {
  std::string cpu = "unknown";
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string lto = PERFBENCH_LTO;

  bool release() const { return build_type == "Release"; }
};

Machine machine() {
  Machine m;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) m.cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  m.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m.compiler = std::string("g++ ") + __VERSION__;
#else
  m.compiler = "unknown";
#endif
  return m;
}

/// CPU seconds consumed so far on `clock`: CLOCK_PROCESS_CPUTIME_ID counts
/// every thread of the process, CLOCK_THREAD_CPUTIME_ID the calling one.
/// Neither counts time the thread waited for a processor, which on a shared
/// host includes the time the hypervisor gave this guest's CPUs to others.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so a benchmark
/// launched from a larger parent (python3 run.py) would report the parent's
/// footprint.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Lowers VmHWM to the current resident set, so that peak_rss_mb() reads
/// the peak since this call.  Where the kernel refuses, VmHWM stays the
/// peak of the whole process.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One simulation: topology, scheme, generated flows.
struct TrialSpec {
  SchemeKind scheme = SchemeKind::kDcp;
  bool with_cc = false;
  bool fattree = false;
  int k = 8;  // fat-tree arity
  int spines = 2, leaves = 4, hosts_per_leaf = 8;
  int shards = 1;
  double inject_loss = 0.0;
  double load = 0.4;
  std::size_t flows = 1000;
  std::uint64_t trace_seed = FlowGenParams{}.seed;
  std::uint64_t placement_seed = 1;  // from --seed: which host plays which role
  bool incast = false;
  IncastParams incast_params;
  Time max_time = seconds(1);
  bool headline = true;  // contributes to the reported FCT slowdowns
};

struct Workload {
  std::vector<TrialSpec> trials;
  bool sweep = false;   // trials go through one SweepRunner
  unsigned jobs = 1;
  bool serial_reference = false;  // also run with 1 shard; must match
};

/// Seed of input `tag` of the benchmark seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return mix64(mix64(seed) ^ mix64(tag + 0x5eed));
}

/// The seed's share of the inputs: a random placement of the workload's
/// flow trace onto the fabric's hosts.  The trace itself (sizes, arrival
/// times, which flows share an endpoint) comes from the generators' default
/// seeds and is the same for every --seed: with ~1000 websearch flows a
/// fresh trace per seed moves the event count by +-30% and the p99
/// slowdown by 10x, which no bound could hold.  Fisher-Yates over a
/// counter hash, so the placement is the same on every platform.
std::vector<Host*> place(std::vector<Host*> hosts, std::uint64_t seed) {
  for (std::size_t i = hosts.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(mix64(seed + i) % i);
    std::swap(hosts[i - 1], hosts[j]);
  }
  return hosts;
}

/// websearch_clos pools several fixed traces per run (each placed by the
/// seed): 8 x 250 flows put 20 flows beyond the p99, and the pooled tail
/// varies about half as much between seeds as one 1000-flow trace's.
constexpr int kWebsearchTraces = 8;
constexpr std::size_t kWebsearchTraceFlows = 250;

Workload make_websearch_clos(std::uint64_t seed, bool tiny) {
  Workload w;
  for (int i = 0; i < (tiny ? 2 : kWebsearchTraces); ++i) {
    TrialSpec t;
    t.spines = 2;
    t.leaves = 4;
    t.hosts_per_leaf = 8;
    t.inject_loss = 0.005;
    t.load = 0.4;
    t.flows = tiny ? 20 : kWebsearchTraceFlows;
    t.trace_seed += static_cast<std::uint64_t>(i);
    t.placement_seed = derive_seed(seed, static_cast<std::uint64_t>(i));
    w.trials.push_back(t);
  }
  return w;
}

Workload make_fattree(std::uint64_t seed, bool tiny, int shards) {
  Workload w;
  w.serial_reference = true;
  TrialSpec t;
  t.fattree = true;
  t.k = 8;
  t.shards = shards;
  t.inject_loss = 0.005;
  t.load = 0.4;
  t.flows = tiny ? 40 : 1000;
  t.placement_seed = derive_seed(seed, 100);
  w.trials.push_back(t);
  return w;
}

/// The Fig 16 shape: websearch at load 0.5 plus 12-to-1 incast at load
/// 0.05 on a 4x4x4 Clos, for IRN, MP-RDMA and DCP with and without DCQCN.
/// The DCP+DCQCN trial carries the headline slowdowns.
Workload make_incast_sweep(std::uint64_t seed, bool tiny, unsigned jobs) {
  Workload w;
  w.sweep = true;
  w.jobs = jobs;
  const std::uint64_t placement_seed = derive_seed(seed, 200);
  for (bool cc : {false, true}) {
    for (SchemeKind k : {SchemeKind::kIrn, SchemeKind::kMpRdma, SchemeKind::kDcp}) {
      TrialSpec t;
      t.scheme = k;
      t.with_cc = cc;
      t.spines = 4;
      t.leaves = 4;
      t.hosts_per_leaf = 4;
      t.load = 0.5;
      t.flows = tiny ? 40 : 1000;
      t.placement_seed = placement_seed;
      t.incast = true;
      t.incast_params.fan_in = 12;
      t.incast_params.bursts = tiny ? 2 : 10;
      t.incast_params.load = 0.05;
      t.incast_params.bytes_per_sender = 256 * 1024;
      t.max_time = seconds(5);
      t.headline = cc && k == SchemeKind::kDcp;
      w.trials.push_back(t);
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// One trial
// ---------------------------------------------------------------------------

/// Deliberate defects for the self-test: each makes exactly one gate fail.
enum class Perturb {
  kNone,
  kIncomplete,   // max_time too short: flows do not finish
  kTruncate,     // one flow's received bytes read one short
  kShardDigest,  // the 1-shard reference digest is flipped
  kOracle,       // the armed run uses a DCP receiver with a duplicate completion
  kTraceDigest,  // the traced run's digest is flipped
};

/// FNV-1a over every flow's completion record plus the event count.  Any
/// divergence in timing, retransmission or delivery lands in here.
struct Digest {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t events = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  bool operator==(const Digest&) const = default;
};

struct TrialResult {
  double trial_s = 0.0;  // whole trial, setup to collected results
  double setup_s = 0.0;     // CPU seconds of the thread that built the trial
  double run_wall_s = 0.0;  // wall seconds of the run
  // CPU seconds of the run, summed over the process's threads: the trial's
  // own only while no other trial runs (not in a sweep).
  double run_cpu_s = 0.0;
  Digest digest;
  CorePerf perf;
  Switch::Stats sw;
  SenderStats tx;    // summed over flows
  ReceiverStats rx;  // summed over flows
  FctStats bg_fct;
  FctStats incast_fct;
  std::size_t flows_started = 0;
  std::size_t flows_failed = 0;
  int shards = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_records = 0;
  std::vector<double> busy_s;  // per shard
  bool oracle_ok = true;
  std::string oracle_summary;
};

struct RunMode {
  bool oracle = false;
  int shards = 0;  // 0 = the spec's shard count
  bool setup_only = false;
  Tracer* tracer = nullptr;
  std::uint64_t parent_span = 0;
  int track = Tracer::kMainTrack;
  Perturb perturb = Perturb::kNone;
};

/// Simulated time per traced run.slice span.
constexpr Time kTraceSlice = microseconds(200);

/// Counters sampled at run.slice boundaries.
struct SliceSample {
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  Switch::Stats sw;
  std::vector<std::uint64_t> busy_ns, windows;
};

SliceSample sample(const Network& net, const ShardGroup& group) {
  SliceSample s;
  s.events = group.events_processed();
  s.completed = net.flows_completed();
  s.sw = net.total_switch_stats();
  for (int i = 0; i < group.size(); ++i) {
    s.busy_ns.push_back(group.busy_ns(i));
    s.windows.push_back(group.shard_windows(i));
  }
  return s;
}

/// Runs the canonical trajectory of run_until_done(max_time) as a series of
/// run_to_paused() slices, one run.slice span each.
void traced_run(Network& net, ShardGroup& group, Time max_time, Tracer& tr, std::uint64_t parent,
                int track) {
  SliceSample prev = sample(net, group);
  for (Time t = kTraceSlice;; t += kTraceSlice) {
    const bool last = t >= max_time;
    const std::uint64_t id = tr.new_id();
    const auto c0 = Clock::now();
    Time reached = t;
    if (last) {
      net.run_until_done(max_time);
    } else {
      reached = net.run_to_paused(t, max_time);
    }
    const auto c1 = Clock::now();
    const SliceSample cur = sample(net, group);
    const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
    tr.add("run.slice", track, c0, c1, id, parent,
           {{"sim_until_us", static_cast<double>(t) / 1e6},
            {"events", d(cur.events, prev.events)},
            {"flows_completed", d(cur.completed, prev.completed)},
            {"forwarded", d(cur.sw.forwarded, prev.sw.forwarded)},
            {"trimmed", d(cur.sw.trimmed, prev.sw.trimmed)},
            {"dropped_data", d(cur.sw.dropped_data, prev.sw.dropped_data)},
            {"ecn_marked", d(cur.sw.ecn_marked, prev.sw.ecn_marked)}});
    if (group.sharded()) {
      // Shard busy time is known per slice, not where in the slice it
      // fell: each shard's busy span is drawn from the slice start.
      for (int i = 0; i < group.size(); ++i) {
        const std::uint64_t busy = cur.busy_ns[i] - prev.busy_ns[i];
        if (busy == 0) continue;
        tr.add("shard.busy", Tracer::kShardTrack0 + i, c0,
               c0 + std::chrono::nanoseconds(busy), tr.new_id(), 0,
               {{"slice", static_cast<double>(id)},
                {"windows", d(cur.windows[i], prev.windows[i])}});
      }
    }
    prev = cur;
    if (last || reached != t) break;
  }
}

TrialResult run_trial(const TrialSpec& spec, const RunMode& mode, const char* span_name) {
  TrialResult r;
  Tracer* tr = mode.tracer;
  const std::uint64_t trial_id = tr ? tr->new_id() : 0;
  const auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    if (tr) tr->add(name, mode.track, a, b, tr->new_id(), trial_id);
  };

  const int shards = mode.shards > 0 ? mode.shards : spec.shards;
  const double setup_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const auto c0 = Clock::now();
  ShardGroup group(shards);
  Logger log(LogLevel::kOff);
  Network net(group, log);
  const auto c1 = Clock::now();
  span("setup.sim", c0, c1);

  SchemeOptions opt;
  opt.with_cc = spec.with_cc;
  SchemeSetup scheme = make_scheme(spec.scheme, opt);
  scheme.sw.inject_loss_rate = spec.inject_loss;
  const auto c2 = Clock::now();
  span("setup.scheme", c1, c2);

  std::vector<Host*> hosts;
  Bandwidth link = Bandwidth::gbps(100);
  if (spec.fattree) {
    FatTreeParams fp;
    fp.k = spec.k;
    fp.sw = scheme.sw;
    hosts = build_fattree(net, fp).hosts;
    link = fp.link;
  } else {
    ClosParams cp;
    cp.spines = spec.spines;
    cp.leaves = spec.leaves;
    cp.hosts_per_leaf = spec.hosts_per_leaf;
    cp.sw = scheme.sw;
    hosts = build_clos(net, cp).hosts;
    link = cp.link;
  }
  const auto c3 = Clock::now();
  span("setup.topo", c2, c3);

  apply_scheme(net, scheme);
  if (mode.oracle && mode.perturb == Perturb::kOracle && spec.scheme == SchemeKind::kDcp) {
    net.set_factory(std::make_shared<BrokenDcpFactory>());
  }
  const auto c4 = Clock::now();
  span("setup.scheme", c3, c4);

  hosts = place(std::move(hosts), spec.placement_seed);
  FlowGenParams fg;
  fg.seed = spec.trace_seed;
  fg.load = spec.load;
  fg.host_rate = link;
  fg.num_flows = spec.flows;
  fg.msg_bytes = opt.msg_bytes;
  generate_poisson_flows(net, hosts, SizeDist::websearch(), fg);
  if (spec.incast) {
    IncastParams ip = spec.incast_params;
    ip.host_rate = link;
    ip.msg_bytes = opt.msg_bytes;
    generate_incast(net, hosts, ip);
  }
  const auto c5 = Clock::now();
  span("setup.flowgen", c4, c5);
  r.setup_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - setup_cpu0;

  if (mode.setup_only) {
    r.trial_s = seconds_between(c0, c5);
    return r;
  }

  std::unique_ptr<InvariantOracle> oracle;
  if (mode.oracle) oracle = std::make_unique<InvariantOracle>(net);
  const Time max_time = mode.perturb == Perturb::kIncomplete ? microseconds(200) : spec.max_time;

  const std::uint64_t run_id = tr ? tr->new_id() : 0;
  CorePerfTimer timer(group);
  const double run_cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto r0 = Clock::now();
  if (tr) {
    traced_run(net, group, max_time, *tr, run_id, mode.track);
  } else {
    net.run_until_done(max_time);
  }
  const auto r1 = Clock::now();
  r.run_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - run_cpu0;
  r.perf = timer.finish();
  r.run_wall_s = seconds_between(r0, r1);
  if (tr) tr->add("run", mode.track, r0, r1, run_id, trial_id);

  if (oracle) {
    oracle->finalize();
    r.oracle_ok = oracle->ok();
    if (!r.oracle_ok) r.oracle_summary = oracle->summary();
  }

  bool first = true;
  for (const FlowRecord& rec : net.records()) {
    ++r.flows_started;
    std::uint64_t received = rec.receiver.bytes_received;
    if (first && mode.perturb == Perturb::kTruncate) --received;
    first = false;
    if (!rec.complete() || received != rec.spec.bytes) ++r.flows_failed;
    r.digest.mix(static_cast<std::uint64_t>(rec.tx_done));
    r.digest.mix(static_cast<std::uint64_t>(rec.rx_done));
    r.digest.mix(rec.sender.data_packets_sent);
    r.digest.mix(rec.sender.retransmitted_packets);
    r.digest.mix(rec.sender.timeouts);
    r.digest.mix(rec.receiver.bytes_received);
    r.digest.mix(rec.receiver.out_of_order_packets);
    r.tx.data_packets_sent += rec.sender.data_packets_sent;
    r.tx.bytes_sent += rec.sender.bytes_sent;
    r.tx.retransmitted_packets += rec.sender.retransmitted_packets;
    r.tx.spurious_retransmissions += rec.sender.spurious_retransmissions;
    r.tx.timeouts += rec.sender.timeouts;
    r.tx.ho_received += rec.sender.ho_received;
    r.rx.bytes_received += rec.receiver.bytes_received;
    r.rx.out_of_order_packets += rec.receiver.out_of_order_packets;
    r.rx.duplicate_packets += rec.receiver.duplicate_packets;
    if (!rec.complete()) continue;
    (rec.spec.background ? r.bg_fct : r.incast_fct)
        .add(rec, net.ideal_fct(rec.spec.src, rec.spec.dst, rec.spec.bytes));
  }
  r.digest.events = r.perf.events_processed;
  r.sw = net.total_switch_stats();
  r.shards = group.size();
  r.windows = group.windows();
  r.cross_records = group.cross_records();
  for (int i = 0; i < group.size(); ++i) {
    r.busy_s.push_back(static_cast<double>(group.busy_ns(i)) * 1e-9);
  }
  const auto c6 = Clock::now();
  r.trial_s = seconds_between(c0, c6);
  if (tr) tr->add(span_name, mode.track, c0, c6, trial_id, mode.parent_span);
  return r;
}

// ---------------------------------------------------------------------------
// One pass over a workload
// ---------------------------------------------------------------------------

struct PassResult {
  // The run_s sample: trials one after another report the CPU time of
  // their runs (all shard threads), a sweep its wall time.  See README.md
  // for why.
  double run_s = 0.0;
  double run_wall_s = 0.0;  // trials' run wall times summed; sweep: sweep wall
  double setup_s = 0.0;     // sum of trial setup times
  Digest digest;
  std::vector<TrialResult> trials;
  // Sweep only: Σ worker busy seconds, slowest trial.
  double sweep_busy_s = 0.0;
  double critical_trial_s = 0.0;
};

PassResult run_pass(const Workload& w, const RunMode& mode, SweepRunner& pool) {
  PassResult p;
  if (w.sweep && !mode.setup_only) {
    Tracer* tr = mode.tracer;
    const std::uint64_t sweep_id = tr ? tr->new_id() : 0;
    const auto c0 = Clock::now();
    p.trials = pool.run(w.trials.size(), [&](std::size_t i) {
      RunMode m = mode;
      m.parent_span = sweep_id;
      if (tr) m.track = tr->worker_track();
      return run_trial(w.trials[i], m, "sweep.trial");
    });
    const auto c1 = Clock::now();
    if (tr) tr->add("sweep", Tracer::kMainTrack, c0, c1, sweep_id, 0);
    p.run_s = p.run_wall_s = pool.last_wall_seconds();
    for (const SweepRunner::WorkerStats& ws : pool.worker_stats()) p.sweep_busy_s += ws.busy_seconds;
  } else {
    for (const TrialSpec& t : w.trials) {
      p.trials.push_back(run_trial(t, mode, "trial"));
      p.run_s += p.trials.back().run_cpu_s;
      p.run_wall_s += p.trials.back().run_wall_s;
    }
  }
  for (const TrialResult& t : p.trials) {
    p.setup_s += t.setup_s;
    p.digest.mix(t.digest.hash);
    p.digest.events += t.digest.events;
    p.critical_trial_s = std::max(p.critical_trial_s, t.trial_s);
  }
  p.digest.mix(p.digest.events);
  return p;
}

// ---------------------------------------------------------------------------
// Metrics and gates
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // how a ratio is formed, printed beside it
  Summary summary;   // when the value is a median of samples
};

struct Gate {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> table;  // printed only: context for the metrics
  std::vector<Gate> gates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string trace_file;
  std::map<std::string, double> self_s;  // median self time per span name

  bool correct() const {
    return std::all_of(gates.begin(), gates.end(), [](const Gate& g) { return g.ok; });
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int shards = 2;
  unsigned jobs = 3;
  std::string trace_dir = ".";
  bool tiny = false;
  int min_passes = 4;
  int min_traced_passes = 2;  // --trace 1 adds traced and armed passes to each
  int setup_passes = 10;       // set-up-only passes before each timed pass
  Perturb perturb = Perturb::kNone;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Pooled slowdowns of the headline trials of one pass.
void headline_slowdowns(const Workload& w, PassResult& p, PercentileEstimator& bg,
                        PercentileEstimator& incast) {
  for (std::size_t i = 0; i < p.trials.size(); ++i) {
    if (!w.trials[i].headline) continue;
    for (double x : p.trials[i].bg_fct.overall().samples()) bg.add(x);
    for (double x : p.trials[i].incast_fct.overall().samples()) incast.add(x);
  }
}

Workload make_workload(const Options& o) {
  if (o.workload == "websearch_clos") return make_websearch_clos(o.seed, o.tiny);
  if (o.workload == "fattree_k8_sharded") return make_fattree(o.seed, o.tiny, o.shards);
  return make_incast_sweep(o.seed, o.tiny, o.jobs);
}

Outcome run_benchmark(const Options& o, const Machine& machine) {
  Outcome out;
  const Workload w = make_workload(o);
  SweepRunner pool(w.sweep ? w.jobs : 1);
  pool.set_progress(false);
  Tracer tracer;
  const auto gate = [&](std::string name, bool ok, std::string detail) {
    out.gates.push_back({std::move(name), ok, std::move(detail)});
  };

  // Pass variants.  Untraced mode times plain passes; traced mode
  // interleaves plain, traced and oracle-armed passes (plus 1-shard passes
  // on the sharded workload) so machine drift hits every variant alike.
  RunMode plain;
  plain.perturb = o.perturb;
  RunMode traced = plain;
  traced.tracer = &tracer;
  RunMode armed = plain;
  armed.oracle = true;
  RunMode serial = plain;
  serial.shards = 1;
  RunMode serial_armed = armed;
  serial_armed.shards = 1;
  RunMode traced_armed = traced;
  traced_armed.oracle = true;

  // Warm-up, untimed: a traced and oracle-armed pass.  It fills the
  // thread-local pools and arenas, and it is the subject of the
  // traced == untraced and oracle gates.
  const PassResult warm = run_pass(w, traced_armed, pool);

  // Every timed pass follows a burst of set-up-only passes, so that machine
  // drift over the run reaches setup_s and run_s alike, and measures its own
  // peak resident set.  setup_s and peak_rss_mb are medians.
  std::vector<double> setup_samples, rss_samples;
  RunMode setup_mode = plain;
  setup_mode.setup_only = true;
  const auto timed_pass = [&] {
    for (int i = 0; i < o.setup_passes; ++i) {
      setup_samples.push_back(run_pass(w, setup_mode, pool).setup_s);
    }
    reset_peak_rss();
    PassResult p = run_pass(w, plain, pool);
    rss_samples.push_back(peak_rss_mb());
    return p;
  };

  // The first timed pass is the reference every other pass must reproduce
  // bit for bit; the simulated metrics come from it.
  const auto start = Clock::now();
  PassResult ref = timed_pass();
  for (const TrialResult& t : ref.trials) {
    out.attempted += t.flows_started;
    out.failed += t.flows_failed;
  }
  gate("flows_complete", out.failed == 0,
       std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
           " flows incomplete or with received bytes != flow bytes");

  std::vector<double> run_plain, run_traced, run_armed, run_serial, wall_plain, wall_serial;
  std::vector<double> util_mean, util_min, barrier_share, efficiency, critical_share;
  std::map<std::string, std::vector<double>> self_samples;
  bool repeat_ok = true;
  bool trace_ok = true;
  bool oracle_ok = true;
  bool serial_ok = true;
  std::string oracle_detail = "armed runs clean";
  int traced_passes = 0;

  const auto check_traced = [&](const PassResult& p) {
    Digest d = p.digest;
    if (o.perturb == Perturb::kTraceDigest) d.hash ^= 1;
    trace_ok = trace_ok && d == ref.digest;
  };
  const auto check_oracle = [&](const PassResult& p) {
    for (const TrialResult& t : p.trials) {
      if (!t.oracle_ok) {
        oracle_ok = false;
        oracle_detail = t.oracle_summary;
      }
    }
  };
  const auto check_serial = [&](const PassResult& p) {
    Digest d = p.digest;
    if (o.perturb == Perturb::kShardDigest) d.hash ^= 1;
    serial_ok = serial_ok && d == ref.digest;
  };
  const auto record_plain = [&](const PassResult& p) {
    repeat_ok = repeat_ok && p.digest == ref.digest;
    run_plain.push_back(p.run_s);
    wall_plain.push_back(p.run_wall_s);
    double busy_max = 0.0, busy_sum = 0.0, busy_min = 1e300;
    double wall = 0.0;
    int shards = 0;
    std::vector<double> busy;
    for (const TrialResult& t : p.trials) {
      if (t.shards < 2) continue;
      wall += t.run_wall_s;
      busy.resize(t.busy_s.size(), 0.0);
      for (std::size_t i = 0; i < t.busy_s.size(); ++i) busy[i] += t.busy_s[i];
    }
    for (double b : busy) {
      busy_max = std::max(busy_max, b);
      busy_min = std::min(busy_min, b);
      busy_sum += b;
      ++shards;
    }
    if (shards > 0 && wall > 0.0) {
      util_mean.push_back(busy_sum / shards / wall);
      util_min.push_back(busy_min / wall);
      barrier_share.push_back((wall - busy_max) / wall);
    }
    if (w.sweep) {
      efficiency.push_back(ratio(p.sweep_busy_s, w.jobs * p.run_wall_s));
      critical_share.push_back(ratio(p.critical_trial_s, p.run_wall_s));
    }
  };

  check_traced(warm);
  check_oracle(warm);
  record_plain(ref);
  for (int pass = 1;; ++pass) {
    if (o.trace) {
      tracer.clear();
      const PassResult tp = run_pass(w, traced, pool);
      check_traced(tp);
      run_traced.push_back(tp.run_s);
      ++traced_passes;
      if (w.serial_reference) {
        const PassResult sp = run_pass(w, serial, pool);
        run_serial.push_back(sp.run_s);
        wall_serial.push_back(sp.run_wall_s);
        check_serial(sp);
      }
      const auto a0 = Clock::now();
      const PassResult ap = run_pass(w, w.serial_reference ? serial_armed : armed, pool);
      tracer.add("check.oracle", Tracer::kMainTrack, a0, Clock::now(), tracer.new_id(), 0);
      check_oracle(ap);
      if (w.serial_reference) {
        check_serial(ap);
      } else {
        repeat_ok = repeat_ok && ap.digest == ref.digest;
      }
      run_armed.push_back(ap.run_s);
      for (const auto& [name, secs] : tracer.self_seconds()) self_samples[name].push_back(secs);
    }
    if (pass >= (o.trace ? o.min_traced_passes : o.min_passes) &&
        seconds_between(start, Clock::now()) >= o.seconds) {
      break;
    }
    record_plain(timed_pass());
  }

  if (!o.trace && w.serial_reference) {
    // Untimed 1-shard reference of the sharded workload.
    check_serial(run_pass(w, serial, pool));
  }
  gate("repeatable", repeat_ok, "every pass reproduces digest " + hex(ref.digest.hash) + " / " +
                                    std::to_string(ref.digest.events) + " events");
  gate("traced_equals_untraced", trace_ok, "traced run digest == untraced digest");
  gate("oracle_clean", oracle_ok, oracle_detail);
  if (w.serial_reference) {
    gate("serial_equals_sharded", serial_ok,
         "1-shard digest and events == " + std::to_string(w.trials.front().shards) +
             "-shard digest and events");
  }

  // Simulated metrics come from the reference pass: they repeat exactly.
  PercentileEstimator bg, incast;
  headline_slowdowns(w, ref, bg, incast);
  if (!o.tiny) {
    gate("p99_supported", perfbench::highest_supported_percentile(bg.count()) >= 99.0,
         std::to_string(bg.count()) + " background flows (p99 needs >= 1000)");
    if (!incast.empty()) {
      gate("incast_p90_supported", perfbench::highest_supported_percentile(incast.count()) >= 90.0,
           std::to_string(incast.count()) + " incast flows (p90 needs >= 100)");
    }
  }

  const Summary run_sum = summarize(run_plain);
  const Summary setup_sum = summarize(setup_samples);
  const Summary rss_sum = summarize(rss_samples);
  if (!o.trace) {
    out.metrics.push_back({"setup_s", setup_sum.median, "s", "", setup_sum});
    out.metrics.push_back({"run_s", run_sum.median, "s", "", run_sum});
    out.metrics.push_back({"peak_rss_mb", rss_sum.median, "MB", "", rss_sum});
    out.metrics.push_back({"fct_slowdown_p50", bg.percentile(50), "x", "", {}});
    out.metrics.push_back({"fct_slowdown_p99", bg.percentile(99), "x", "", {}});
    if (!incast.empty()) {
      out.table.push_back({"incast_fct_slowdown_p90", incast.percentile(90), "x", "", {}});
    }
    out.table.push_back({"flows_started", static_cast<double>(out.attempted), "count", "", {}});
    out.table.push_back({"flows_failed", static_cast<double>(out.failed), "count", "", {}});
    out.table.push_back({"headline_flows", static_cast<double>(bg.count()), "count", "", {}});
    const Summary wall_sum = summarize(wall_plain);
    out.table.push_back({"run wall", wall_sum.median, "s", "", wall_sum});
    return out;
  }

  // ---- Per-layer metrics (traced run) ----
  CorePerf perf;
  Switch::Stats sw;
  SenderStats tx;
  ReceiverStats rx;
  std::uint64_t windows = 0, cross = 0;
  for (const TrialResult& t : ref.trials) {
    perf.events_processed += t.perf.events_processed;
    perf.pool_acquires += t.perf.pool_acquires;
    perf.pool_slots = std::max(perf.pool_slots, t.perf.pool_slots);
    perf.event_slots = std::max(perf.event_slots, t.perf.event_slots);
    perf.arena_bytes = std::max(perf.arena_bytes, t.perf.arena_bytes);
    sw.forwarded += t.sw.forwarded;
    sw.trimmed += t.sw.trimmed;
    sw.ho_seen += t.sw.ho_seen;
    sw.injected_trims += t.sw.injected_trims;
    sw.dropped_data += t.sw.dropped_data;
    sw.dropped_ho += t.sw.dropped_ho;
    sw.dropped_ctrl += t.sw.dropped_ctrl;
    sw.ecn_marked += t.sw.ecn_marked;
    tx.data_packets_sent += t.tx.data_packets_sent;
    tx.bytes_sent += t.tx.bytes_sent;
    tx.retransmitted_packets += t.tx.retransmitted_packets;
    tx.spurious_retransmissions += t.tx.spurious_retransmissions;
    tx.timeouts += t.tx.timeouts;
    tx.ho_received += t.tx.ho_received;
    rx.bytes_received += t.rx.bytes_received;
    rx.out_of_order_packets += t.rx.out_of_order_packets;
    rx.duplicate_packets += t.rx.duplicate_packets;
    if (t.shards > 1) {
      windows += t.windows;
      cross += t.cross_records;
    }
  }
  const auto med = [](const std::vector<double>& v) { return summarize(v).median; };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto count = [&](const char* name, double v) {
    out.metrics.push_back({name, v, "count", "", {}});
  };
  const auto share = [&](const char* name, double v, std::string base) {
    out.metrics.push_back({name, v, "ratio", std::move(base), {}});
  };
  const auto secs = [&](const char* name, const std::vector<double>& v) {
    const Summary s = summarize(v);
    out.metrics.push_back({name, s.median, "s", "", s});
  };
  const double ev = u(perf.events_processed);

  count("sim.events", ev);
  out.metrics.push_back({"sim.events_per_s", ratio(ev, run_sum.median), "1/s",
                         fmt("%.0f events / %.4f s untraced run_s", ev, run_sum.median), {}});
  count("sim.event_slots", u(perf.event_slots));
  out.metrics.push_back({"sim.arena_bytes", u(perf.arena_bytes), "bytes", "", {}});
  count("net.pool_acquires", u(perf.pool_acquires));
  share("net.pool_acquires_per_event", ratio(u(perf.pool_acquires), ev),
        fmt("%.0f acquires / %.0f events", u(perf.pool_acquires), ev));
  count("net.pool_slots", u(perf.pool_slots));

  count("switch.forwarded", u(sw.forwarded));
  count("switch.trimmed", u(sw.trimmed));
  count("switch.ho_seen", u(sw.ho_seen));
  count("switch.injected_trims", u(sw.injected_trims));
  count("switch.dropped_data", u(sw.dropped_data));
  count("switch.dropped_ho", u(sw.dropped_ho));
  count("switch.dropped_ctrl", u(sw.dropped_ctrl));
  count("switch.ecn_marked", u(sw.ecn_marked));
  share("switch.trim_ratio", ratio(u(sw.trimmed), u(sw.forwarded + sw.trimmed)),
        fmt("%.0f trimmed / (forwarded + trimmed) %.0f", u(sw.trimmed),
            u(sw.forwarded + sw.trimmed)));

  count("core.data_packets_sent", u(tx.data_packets_sent));
  count("core.retransmitted", u(tx.retransmitted_packets));
  share("core.retrans_ratio", ratio(u(tx.retransmitted_packets), u(tx.data_packets_sent)),
        fmt("%.0f retransmitted / %.0f data packets sent", u(tx.retransmitted_packets),
            u(tx.data_packets_sent)));
  count("core.spurious_retrans", u(tx.spurious_retransmissions));
  count("core.timeouts", u(tx.timeouts));
  count("core.ho_received", u(tx.ho_received));
  count("core.out_of_order", u(rx.out_of_order_packets));
  count("core.duplicates", u(rx.duplicate_packets));
  share("core.useful_ratio", ratio(u(rx.bytes_received), u(tx.bytes_sent)),
        fmt("%.0f unique bytes received / %.0f bytes sent", u(rx.bytes_received),
            u(tx.bytes_sent)));

  count("shard.windows", u(windows));
  share("shard.events_per_window", ratio(ev, u(windows)),
        fmt("%.0f events / %.0f windows", ev, u(windows)));
  share("shard.util_mean", med(util_mean), "median over passes of mean shard busy / run wall");
  share("shard.util_min", med(util_min), "median over passes of min shard busy / run wall");
  share("shard.barrier_share", med(barrier_share),
        "median over passes of (run wall - max shard busy) / run wall");
  count("shard.cross_records", u(cross));
  share("shard.speedup_vs_serial", ratio(med(wall_serial), med(wall_plain)),
        fmt("1-shard run wall %.4f s / sharded run wall %.4f s", med(wall_serial),
            med(wall_plain)));

  share("sweep.parallel_efficiency", med(efficiency),
        "median over passes of sum worker busy / (jobs x sweep wall)");
  share("sweep.critical_trial_share", med(critical_share),
        "median over passes of slowest trial / sweep wall");

  secs("topo.build_s", self_samples["setup.topo"]);
  secs("harness.scheme_s", self_samples["setup.scheme"]);
  secs("workload.flowgen_s", self_samples["setup.flowgen"]);
  share("check.oracle_overhead", ratio(med(run_armed), w.serial_reference ? med(run_serial)
                                                                           : run_sum.median),
        fmt("armed run_s %.4f / unarmed run_s %.4f", med(run_armed),
            w.serial_reference ? med(run_serial) : run_sum.median));
  share("tracing_overhead", ratio(med(run_traced), run_sum.median),
        fmt("traced run_s %.4f / untraced run_s %.4f", med(run_traced), run_sum.median));
  out.metrics.push_back({"stats.incast_fct_slowdown_p90",
                         incast.empty() ? 0.0 : incast.percentile(90), "x",
                         std::to_string(incast.count()) + " incast flows of the headline trial",
                         {}});

  out.table.push_back({"run_s (untraced)", run_sum.median, "s", "", run_sum});
  out.table.push_back({"run wall (untraced)", med(wall_plain), "s", "", summarize(wall_plain)});
  out.table.push_back({"traced passes", static_cast<double>(traced_passes), "count", "", {}});
  for (const auto& [name, v] : self_samples) out.self_s[name] = med(v);

  // The span file holds the last traced pass and the last armed pass.
  out.trace_file = o.trace_dir + "/perfbench-" + o.workload + "-seed" + std::to_string(o.seed) +
                   ".trace.json";
  const bool wrote = tracer.write_chrome_json(
      out.trace_file, {{"workload", o.workload},
                       {"seed", std::to_string(o.seed)},
                       {"cpu", machine.cpu},
                       {"nproc", std::to_string(machine.nproc)},
                       {"compiler", machine.compiler},
                       {"build_type", machine.build_type},
                       {"lto", machine.lto}});
  gate("span_file", wrote, "wrote " + out.trace_file);
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

const char* kWorkloads[] = {"websearch_clos", "fattree_k8_sharded", "incast_sweep"};

/// Where each span's self time goes: the layer it measures.
const char* span_layer(const std::string& span) {
  static const std::map<std::string, const char*> kLayer = {
      {"setup.sim", "sim (ShardGroup + Network construction)"},
      {"setup.scheme", "harness (make_scheme + apply_scheme)"},
      {"setup.topo", "topo (build_clos / build_fattree)"},
      {"setup.flowgen", "workload (generate_poisson_flows / generate_incast)"},
      {"run", "slice loop between run.slice spans (tracing cost)"},
      {"run.slice",
       "run loop: sim+net+switch+host+core+transports+cc (not split from outside)"},
      {"shard.busy", "sim shard windows (busy time, summed over shards)"},
      {"trial", "teardown + result collection"},
      {"sweep.trial", "teardown + result collection"},
      {"sweep", "harness SweepRunner dispatch (sweep wall not covered by trials)"},
      {"check.oracle", "check (whole oracle-armed pass)"},
  };
  const auto it = kLayer.find(span);
  return it == kLayer.end() ? "" : it->second;
}

void print_report(const Options& o, const Machine& m, const Outcome& out) {
  std::printf("machine: cpu=\"%s\" nproc=%u compiler=\"%s\" build_type=%s lto=%s\n",
              m.cpu.c_str(), m.nproc, m.compiler.c_str(), m.build_type.c_str(), m.lto.c_str());
  if (!m.release()) {
    std::printf("WARNING: %s build, not Release: timings are not comparable\n",
                m.build_type.c_str());
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d shards=%d jobs=%u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.shards, o.jobs);
  std::printf("%-30s %16s %-6s %s\n", "metric", "value", "unit", "median [q1, q3] n / base");
  for (const auto* list : {&out.metrics, &out.table}) {
    for (const Metric& x : *list) {
      std::printf("%-30s %16.6g %-6s", x.name.c_str(), x.value, x.unit.c_str());
      if (x.summary.n > 1) {
        std::printf(" [%.6g, %.6g] n=%zu spread=%.3f", x.summary.q1, x.summary.q3, x.summary.n,
                    x.summary.spread());
      }
      if (!x.base.empty()) std::printf(" = %s", x.base.c_str());
      std::printf("\n");
    }
  }
  if (!out.self_s.empty()) {
    std::printf("self time by span (median over traced passes):\n");
    for (const auto& [name, s] : out.self_s) {
      std::printf("  %-14s %10.6f s  %s\n", name.c_str(), s, span_layer(name));
    }
  }
  if (!out.trace_file.empty()) std::printf("span file: %s\n", out.trace_file.c_str());
  for (const Gate& g : out.gates) {
    std::printf("gate %-24s %s  (%s)\n", g.name.c_str(), g.ok ? "PASS" : "FAIL", g.detail.c_str());
  }
}

void print_result_line(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.correct() ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& x = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", x.name.c_str(),
                x.value, x.unit.c_str());
  }
  std::printf("}}\n");
}

/// The benchmark's own tests: the summary helpers against Python's
/// statistics module, the percentile-support rule, metric-name validity,
/// and a small run of each workload showing that it passes every gate and
/// that each gate fails when its defect is planted.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const auto same = [](const Summary& s, double q1, double median, double q3) {
    return s.q1 == q1 && s.median == median && s.q3 == q3;
  };
  // Expected values: statistics.quantiles(v, n=4) and statistics.median(v).
  expect(same(summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 2.75, 5.5, 8.25), "quartiles of 1..10");
  expect(same(summarize({3, 1, 2}), 1.0, 2.0, 3.0), "quartiles of {3, 1, 2}");
  expect(same(summarize({5, 1}), 0.0, 3.0, 6.0), "quartiles of {5, 1} extrapolate");
  expect(same(summarize({4, 3, 2, 1}), 1.25, 2.5, 3.75), "quartiles of {4, 3, 2, 1}");
  expect(same(summarize({7}), 7.0, 7.0, 7.0) && summarize({}).n == 0, "one and no samples");
  expect(summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread() == 5.5 / 5.5, "spread = IQR / median");

  using perfbench::highest_supported_percentile;
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples support p99");
  expect(highest_supported_percentile(999) == 90.0, "999 samples stop at p90");
  expect(highest_supported_percentile(100) == 90.0, "100 samples support p90");
  expect(highest_supported_percentile(99) == 50.0, "99 samples stop at p50");
  expect(highest_supported_percentile(20) == 50.0, "20 samples support p50");
  expect(highest_supported_percentile(19) == 0.0, "19 samples support nothing");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples support p99.9");
  expect(highest_supported_percentile(100000) == 99.99, "100000 samples support p99.99");

  using perfbench::valid_metric_name;
  for (const char* ok : {"run_s", "sim.events_per_s", "shard.util-min", "9lives"}) {
    expect(valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "p99%", "caf\xc3\xa9"}) {
    expect(!valid_metric_name(bad), std::string("invalid name '") + bad + "'");
  }
  expect(!valid_metric_name(std::string(65, 'a')) && valid_metric_name(std::string(64, 'a')),
         "names are at most 64 characters");

  struct Plant {
    Perturb perturb;
    const char* gate;
  };
  const Plant plants[] = {{Perturb::kIncomplete, "flows_complete"},
                          {Perturb::kTruncate, "flows_complete"},
                          {Perturb::kShardDigest, "serial_equals_sharded"},
                          {Perturb::kOracle, "oracle_clean"},
                          {Perturb::kTraceDigest, "traced_equals_untraced"}};
  const Machine m = machine();
  for (const char* name : kWorkloads) {
    Options o;
    o.workload = name;
    o.seed = 3;
    o.seconds = 0.0;
    o.tiny = true;
    o.min_passes = 1;
    o.min_traced_passes = 1;
    o.setup_passes = 1;
    o.shards = 2;
    o.jobs = 2;
    o.trace_dir = ".";
    const Outcome clean = run_benchmark(o, m);
    std::string failed;
    for (const Gate& g : clean.gates) {
      if (!g.ok) failed += " " + g.name + " (" + g.detail + ")";
    }
    expect(clean.correct() && clean.attempted > 0, std::string(name) + ": clean run passes" + failed);
    expect(std::all_of(clean.metrics.begin(), clean.metrics.end(),
                       [](const Metric& x) { return valid_metric_name(x.name); }),
           std::string(name) + ": metric names valid");
    for (const Plant& p : plants) {
      if (p.perturb == Perturb::kShardDigest && o.workload != "fattree_k8_sharded") continue;
      Options bad = o;
      bad.perturb = p.perturb;
      const Outcome r = run_benchmark(bad, m);
      const auto g = std::find_if(r.gates.begin(), r.gates.end(),
                                  [&](const Gate& x) { return x.name == p.gate; });
      expect(!r.correct() && g != r.gates.end() && !g->ok,
             std::string(name) + ": planted defect fails gate " + p.gate);
    }
  }
  std::printf("selftest %s (%d failures)\n", failures == 0 ? "PASSED" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--shards K] "
               "[--jobs J] [--trace-dir DIR] [--tiny 0|1]\n       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return selftest();
    if (!has_value) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--shards") {
      o.shards = std::atoi(v);
    } else if (a == "--jobs") {
      o.jobs = static_cast<unsigned>(std::atoi(v));
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else if (a == "--tiny") {
      // Small inputs, one pass: a smoke run of the gates, not a measurement.
      o.tiny = std::strcmp(v, "0") != 0;
      o.min_passes = 1;
      o.min_traced_passes = 1;
      o.setup_passes = 1;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload ||
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads), [&](const char* n) {
        return o.workload == n;
      }) == std::end(kWorkloads)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return usage(argv[0]);
  }
  const Machine m = machine();
  if (o.shards < 1 || o.jobs < 1 || (m.nproc > 0 && (static_cast<unsigned>(o.shards) > m.nproc ||
                                                     o.jobs > m.nproc))) {
    std::fprintf(stderr, "--shards %d / --jobs %u must be within 1..nproc (%u)\n", o.shards,
                 o.jobs, m.nproc);
    return 2;
  }

  Outcome out = run_benchmark(o, m);
  for (const Metric& x : out.metrics) {
    if (!perfbench::valid_metric_name(x.name)) {
      out.gates.push_back({"metric_names", false, "invalid metric name '" + x.name + "'"});
    }
  }
  print_report(o, m, out);
  print_result_line(out);
  return out.correct() ? 0 : 1;
}
