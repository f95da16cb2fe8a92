#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "core/init.hpp"
#include "core/phases.hpp"
#include "core/state.hpp"
#include "core/sweep.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/edge_list.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "serve/loadgen.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using xtra::count_t;
using xtra::lid_t;
using xtra::part_t;
using xtra::Timer;
using Gid = xtra::gid_t;
namespace analytics = xtra::analytics;
namespace core = xtra::core;
namespace engine = xtra::engine;
namespace gen = xtra::gen;
namespace graph = xtra::graph;
namespace metrics = xtra::metrics;
namespace par = xtra::par;
namespace serve = xtra::serve;
namespace sim = xtra::sim;

// core::partition's calls, in its order. "sizes" is the Sv (then Se,
// Sc) recount that opens each outer loop.
constexpr std::array<const char*, 6> kPhases = {
    "init", "sizes", "vert_balance", "vert_refine", "edge_balance",
    "edge_refine"};
constexpr int kFirstMovingPhase = 2;

// The eight Fig-8 programs, in bench_fig8_analytics' column order.
constexpr std::array<const char*, 8> kPrograms = {
    "harmonic", "kcore", "commlp", "pagerank", "scc", "wcc", "sssp",
    "triangles"};

struct MetricDef {
  std::string name;
  std::string unit;
};

// Untraced runs: every workload reports each of these, so only what
// every workload has and what never reads 0 is here. end_to_end_s is
// the time of the workload's job: the partition, the partition plus
// the Fig-8 programs, or the serving trace. The serving workload does
// not partition, so it has no partition quality, and the wire volume
// is 0 at one rank: both are per-layer metrics and untraced details.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"end_to_end_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

// Traced runs: every workload reports each of these; a layer the
// workload does not exercise reads 0.
const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {{"gen.s", "s"},
                                {"graph.build_s", "s"},
                                {"graph.migrate_s", "s"},
                                {"metrics.evaluate_s", "s"},
                                {"metrics.edge_cut_ratio", "ratio"},
                                {"metrics.scaled_max_cut", "ratio"},
                                {"metrics.vertex_imbalance", "ratio"},
                                {"metrics.edge_imbalance", "ratio"},
                                {"trace.overhead_s", "s"},
                                {"comm.wire_mb", "MB"},
                                {"comm.update_start_s", "s"},
                                {"comm.update_finish_s", "s"},
                                {"mpisim.collectives", "count"},
                                {"mpisim.messages", "count"},
                                {"core.partition_s", "s"},
                                {"core.partition_self_s", "s"},
                                {"core.span_coverage", "ratio"},
                                {"core.partition_speedup", "ratio"},
                                {"core.scan_s_t1", "s"},
                                {"core.scan_s_t4", "s"},
                                {"core.scan_speedup", "ratio"}};
    for (int p = 0; p < static_cast<int>(kPhases.size()); ++p) {
      const std::string ph = kPhases[static_cast<std::size_t>(p)];
      d.push_back({"core." + ph + "_s", "s"});
      d.push_back({"core." + ph + "_skew", "ratio"});
      d.push_back({"mpisim." + ph + "_wait_s", "s"});
      d.push_back({"comm." + ph + "_bytes", "bytes"});
      if (p >= kFirstMovingPhase) {
        d.push_back({"core." + ph + "_moves", "count"});
        d.push_back({"core." + ph + "_speedup", "ratio"});
      }
    }
    d.push_back({"engine.analytics_s", "s"});
    for (const char* prog : kPrograms) {
      const std::string p = std::string("engine.") + prog;
      d.push_back({p + "_s", "s"});
      d.push_back({p + "_supersteps", "count"});
      d.push_back({p + "_bytes", "bytes"});
      d.push_back({p + "_exchange_s", "s"});
    }
    for (const MetricDef& m : std::vector<MetricDef>{
             {"serve.qps", "1/s"},
             {"serve.p50_ms", "ms"},
             {"serve.p99_ms", "ms"},
             {"serve.supersteps", "count"},
             {"serve.slot_occupancy", "ratio"},
             {"serve.supersteps_per_query", "count"},
             {"serve.collectives_per_query", "count"},
             {"serve.bytes_per_query", "bytes"},
             {"serve.queue_wait_p99_ms", "ms"},
             {"serve.queue_wait_first_half_ms", "ms"},
             {"serve.queue_wait_second_half_ms", "ms"},
             {"serve.wall_per_superstep_us", "us"}})
      d.push_back(m);
    return d;
  }();
  return defs;
}

enum class Kind { kPartition, kFig8, kServe };

struct Spec {
  WorkloadShape shape;
  Kind kind;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> s = {
      {{"partition_rmat_r4", 4, 1}, Kind::kPartition},
      {{"partition_rmat_t4", 1, 4}, Kind::kPartition},
      {{"fig8_web_r4", 4, 1}, Kind::kFig8},
      {{"serve_mix_r2", 2, 1}, Kind::kServe},
  };
  return s;
}

// --- Inputs and serial references ------------------------------------

struct Inputs {
  graph::EdgeList el;        ///< the undirected graph the workload runs on
  graph::EdgeList directed;  ///< fig8 only: the crawl's arcs, for SCC
};

// The inputs are the same on every run, whatever --seed says, so that
// the spread between runs is the timing noise alone and not the
// difference between one generated graph and the next.
constexpr std::uint64_t kInputSeed = 1;

Inputs generate(Kind kind, bool smoke) {
  Inputs in;
  switch (kind) {
    case Kind::kPartition:
      in.el = gen::rmat(smoke ? 10 : 17, 16, kInputSeed);
      break;
    case Kind::kFig8:
      // 60k vertices, so that about ten repeats of the partition and
      // the eight programs fit in one run and their median is steady.
      in.directed = gen::webcrawl(smoke ? 2'000 : 60'000, 20, kInputSeed);
      in.el = graph::symmetrized(in.directed);
      break;
    case Kind::kServe:
      in.el = gen::erdos_renyi(smoke ? 500 : 8'000, 8, kInputSeed);
      break;
  }
  return in;
}

core::Params params_for(const Spec& spec) {
  core::Params p;  // the paper's defaults
  p.num_threads = spec.shape.threads;
  switch (spec.kind) {
    case Kind::kPartition:
      p.nparts = 32;
      break;
    case Kind::kFig8:  // Fig 8: block init, one part per rank
      p.nparts = spec.shape.ranks;
      p.init = core::InitStrategy::kBlock;
      break;
    case Kind::kServe:  // serves on the random layout, unpartitioned
      break;
  }
  return p;
}

graph::VertexDist initial_dist(Kind kind, Gid n, int ranks) {
  return kind == Kind::kFig8 ? graph::VertexDist::block(n, ranks)
                             : graph::VertexDist::random(n, ranks, 17);
}

/// Adjacency as build_dist_graph stores an undirected edge list:
/// self-loops dropped, duplicate edges kept.
std::vector<std::vector<Gid>> adjacency(const graph::EdgeList& el) {
  std::vector<std::vector<Gid>> adj(el.n);
  for (const graph::Edge& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  return adj;
}

count_t serial_components(const graph::EdgeList& el) {
  std::vector<Gid> up(el.n);
  for (Gid v = 0; v < el.n; ++v) up[v] = v;
  const auto find = [&up](Gid v) {
    while (up[v] != v) v = up[v] = up[up[v]];
    return v;
  };
  count_t components = static_cast<count_t>(el.n);
  for (const graph::Edge& e : el.edges) {
    const Gid a = find(e.u), b = find(e.v);
    if (a == b) continue;
    up[std::max(a, b)] = std::min(a, b);
    --components;
  }
  return components;
}

/// Dijkstra over analytics::edge_weight, the SSSP program's weights.
std::vector<count_t> serial_sssp(const std::vector<std::vector<Gid>>& adj,
                                 Gid root, std::uint64_t weight_seed,
                                 count_t max_weight) {
  std::vector<count_t> dist(adj.size(), analytics::kInfDist);
  using Item = std::pair<count_t, Gid>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[root] = 0;
  pq.push({0, root});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (const Gid u : adj[v]) {
      const count_t nd =
          d + analytics::edge_weight(v, u, weight_seed, max_weight);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

/// BFS levels from `src` (kInfDist = unreached).
std::vector<count_t> serial_bfs(const std::vector<std::vector<Gid>>& adj,
                                Gid src) {
  std::vector<count_t> level(adj.size(), analytics::kInfDist);
  std::queue<Gid> fifo;
  level[src] = 0;
  fifo.push(src);
  while (!fifo.empty()) {
    const Gid v = fifo.front();
    fifo.pop();
    for (const Gid u : adj[v])
      if (level[u] == analytics::kInfDist) {
        level[u] = level[v] + 1;
        fifo.push(u);
      }
  }
  return level;
}

/// What serve::Scheduler must return for `q`, folded from a serial BFS
/// with the scheduler's arithmetic (so PPR scores compare bitwise).
serve::QueryResult expected_result(const std::vector<std::vector<Gid>>& adj,
                                   const std::vector<count_t>& level,
                                   const serve::Query& q, double alpha) {
  serve::QueryResult r;
  r.kind = q.kind;
  std::vector<count_t> at_level;
  for (const count_t d : level)
    if (d != analytics::kInfDist) {
      if (static_cast<std::size_t>(d) >= at_level.size())
        at_level.resize(static_cast<std::size_t>(d) + 1, 0);
      ++at_level[static_cast<std::size_t>(d)];
    }
  const auto reach_within = [&](count_t cap) {
    count_t reach = 0;
    for (std::size_t l = 0; l < at_level.size(); ++l)
      if (static_cast<count_t>(l) <= cap) reach += at_level[l];
    return reach;
  };
  switch (q.kind) {
    case serve::QueryKind::kPointLookup:
      r.value = static_cast<count_t>(adj[q.source].size());
      break;
    case serve::QueryKind::kKHop:
      r.value = reach_within(q.depth);
      break;
    case serve::QueryKind::kBfs:
      r.value = reach_within(std::numeric_limits<count_t>::max());
      break;
    case serve::QueryKind::kPpr: {
      double weight = alpha;
      r.score = alpha;
      r.value = 1;
      count_t frontier = 1;
      for (count_t l = 1; frontier > 0 && l <= q.depth; ++l) {
        const count_t marks = static_cast<std::size_t>(l) < at_level.size()
                                  ? at_level[static_cast<std::size_t>(l)]
                                  : 0;
        r.value += marks;
        weight *= 1.0 - alpha;
        r.score += weight * static_cast<double>(marks);
        frontier = marks;
      }
      break;
    }
  }
  return r;
}

struct References {
  count_t components = 0;           ///< fig8: WCC count
  std::vector<count_t> sssp;        ///< fig8: distances from gid 0, by gid
  std::vector<serve::Query> queries;             ///< serve: the trace
  std::vector<serve::QueryResult> expected;      ///< serve: per query
};

constexpr Gid kSsspRoot = 0;
constexpr count_t kSsspDelta = 8;
constexpr count_t kSsspMaxWeight = 16;
constexpr std::uint64_t kSsspWeightSeed = 1;

References make_references(Kind kind, const Inputs& in, bool smoke,
                           double ppr_alpha) {
  References ref;
  if (kind == Kind::kFig8) {
    ref.components = serial_components(in.el);
    ref.sssp = serial_sssp(adjacency(in.el), kSsspRoot, kSsspWeightSeed,
                           kSsspMaxWeight);
  } else if (kind == Kind::kServe) {
    serve::LoadGenConfig lg;  // equal kind mix
    lg.num_queries = smoke ? 64 : 1000;
    lg.rate_qps = 8.0;  // below virtual saturation on this graph
    lg.seed = kInputSeed;
    lg.khop_depth = 3;
    lg.ppr_depth = 4;
    ref.queries = serve::LoadGen::generate(lg, in.el.n);
    const auto adj = adjacency(in.el);
    std::map<Gid, std::vector<count_t>> levels;
    for (const serve::Query& q : ref.queries) {
      auto it = levels.find(q.source);
      if (it == levels.end())
        it = levels.emplace(q.source, serial_bfs(adj, q.source)).first;
      ref.expected.push_back(expected_result(adj, it->second, q, ppr_alpha));
    }
  }
  return ref;
}

// --- Per-rank measurement --------------------------------------------

/// Run f, timed by a span called `name` when `tr` records, else by a
/// Timer. `name` must be unique within the traced iteration.
template <typename F>
double measure(Tracer& tr, const std::string& name, F&& f) {
  if (!tr.enabled()) {
    Timer t;
    f();
    return t.seconds();
  }
  {
    auto span = tr.scope(name);
    f();
  }
  return tr.total(name);
}

/// Per-rank layer values, keyed by metric name, with the reduction
/// over ranks each needs.
struct Ledger {
  std::map<std::string, double> maxed;   ///< times: max over ranks
  std::map<std::string, double> mined;   ///< min over ranks (skew, coverage)
  std::map<std::string, double> summed;  ///< bytes, counts: world sum
};

struct Reduced {
  std::map<std::string, double> max, min, sum;
};

Reduced reduce(sim::Comm& comm, const Ledger& l) {
  const auto values = [](const std::map<std::string, double>& m) {
    std::vector<double> v;
    for (const auto& kv : m) v.push_back(kv.second);
    return v;
  };
  std::vector<double> mx = values(l.maxed), mn = values(l.mined),
                      sm = values(l.summed);
  comm.allreduce_max(mx);
  comm.allreduce_min(mn);
  comm.allreduce_sum(sm);
  Reduced r;
  const auto fill = [](std::map<std::string, double>& out,
                       const std::map<std::string, double>& keys,
                       const std::vector<double>& v) {
    std::size_t i = 0;
    for (const auto& kv : keys) out[kv.first] = v[i++];
  };
  fill(r.max, l.maxed, mx);
  fill(r.min, l.mined, mn);
  fill(r.sum, l.summed, sm);
  return r;
}

count_t owned_changes(const std::vector<part_t>& before,
                      const std::vector<part_t>& after, lid_t n_local) {
  count_t moves = 0;
  for (lid_t v = 0; v < n_local; ++v)
    if (before[v] != after[v]) ++moves;
  return moves;
}

/// core::partition's public calls in its order, each under a span, with
/// the comm ledger read around every call. The labels must come out
/// byte-equal to core::partition's (the run checks it).
std::vector<part_t> traced_partition(sim::Comm& comm,
                                     const graph::DistGraph& g,
                                     const core::Params& params, Tracer& tr,
                                     Ledger& led) {
  par::ThreadScope threads(params.num_threads);
  std::vector<part_t> parts;
  std::vector<part_t> before;
  core::PhaseState st;
  const auto phase = [&](int p, auto&& call) {
    const std::string name = kPhases[static_cast<std::size_t>(p)];
    const sim::CommStats c0 = comm.stats();
    if (p >= kFirstMovingPhase) before = parts;
    {
      auto span = tr.scope("core." + name);
      call();
    }
    const sim::CommStats& c1 = comm.stats();
    led.maxed["mpisim." + name + "_wait_s"] +=
        c1.comm_seconds - c0.comm_seconds;
    led.summed["comm." + name + "_bytes"] +=
        static_cast<double>(c1.bytes_sent - c0.bytes_sent);
    led.maxed["mpisim.collectives"] +=
        static_cast<double>(c1.collectives - c0.collectives);
    led.summed["mpisim.messages"] +=
        static_cast<double>(c1.messages_sent - c0.messages_sent);
    if (p >= kFirstMovingPhase)
      led.summed["core." + name + "_moves"] +=
          static_cast<double>(owned_changes(before, parts, g.n_local()));
  };
  {
    auto whole = tr.scope("core.partition");
    phase(0, [&] { parts = core::initialize_parts(comm, g, params); });
    st.nparts = params.nparts;
    st.nprocs = comm.size();
    st.exchanger.set_max_send_bytes(params.max_exchange_bytes);
    st.exchanger.set_shard_policy(params.shard_policy);
    st.exchanger.set_backend(params.backend);
    st.x = params.mult_x;
    st.y = params.mult_y;
    st.i_tot = std::max(
        params.outer_iters * (params.bal_iters + params.ref_iters), 1);
    st.imb_v = static_cast<count_t>(
        std::ceil((1.0 + params.vert_imbalance) *
                  static_cast<double>(g.n_global()) /
                  static_cast<double>(params.nparts)));
    st.imb_e = static_cast<count_t>(
        std::ceil((1.0 + params.edge_imbalance) * 2.0 *
                  static_cast<double>(g.m_global()) /
                  static_cast<double>(params.nparts)));
    const auto np = static_cast<std::size_t>(params.nparts);

    phase(1, [&] {
      st.size_v = core::compute_vertex_sizes(comm, g, parts, params.nparts);
    });
    st.change_v.assign(np, 0);
    st.iter_tot = 0;
    for (int outer = 0; outer < params.outer_iters; ++outer) {
      phase(2, [&] { core::vert_balance_phase(comm, g, parts, st, params); });
      phase(3, [&] { core::vert_refine_phase(comm, g, parts, st, params); });
    }
    if (params.edge_phases) {
      phase(1, [&] {
        st.size_e = core::compute_edge_sizes(comm, g, parts, params.nparts);
        st.size_c = core::compute_cut_sizes(comm, g, parts, params.nparts);
      });
      st.change_e.assign(np, 0);
      st.change_c.assign(np, 0);
      st.iter_tot = 0;
      for (int outer = 0; outer < params.outer_iters; ++outer) {
        phase(4,
              [&] { core::edge_balance_phase(comm, g, parts, st, params); });
        phase(5, [&] { core::edge_refine_phase(comm, g, parts, st, params); });
      }
    }
  }
  double covered = 0.0;
  for (const char* ph : kPhases) {
    const std::string p = ph;
    const double s = tr.total("core." + p);
    led.maxed["core." + p + "_s"] = s;
    covered += s;
    // Busy time (the span less its wait inside collectives) is what
    // differs between ranks; the collectives equalize the wall time.
    const double busy = s - led.maxed["mpisim." + p + "_wait_s"];
    led.maxed["core." + p + "_busy_s"] = busy;
    led.mined["core." + p + "_busy_s"] = busy;
  }
  const double total = tr.total("core.partition");
  led.maxed["core.partition_s"] = total;
  led.maxed["core.partition_self_s"] = tr.self_total("core.partition");
  led.mined["core.span_coverage"] = total > 0.0 ? covered / total : 0.0;
  led.maxed["comm.update_start_s"] = st.exchanger.stats().start_seconds;
  led.maxed["comm.update_finish_s"] = st.exchanger.stats().finish_seconds;
  return parts;
}

/// One program's ledger: wall time, this rank's payload, supersteps
/// and time spent in the exchange.
struct ProgramRun {
  double seconds = 0.0;
  count_t bytes = 0;
  count_t supersteps = 0;
  double exchange_s = 0.0;
};

ProgramRun from_stats(const engine::Stats& s) {
  return {0.0, s.comm_bytes, s.supersteps, s.exchange.seconds};
}

/// The ledger of an analytics entry point, which returns a RunInfo.
/// RunInfo has no exchange time, so that is the comm layer's wait time
/// around the call.
template <typename F>
ProgramRun from_entry_point(sim::Comm& comm, F&& call) {
  const double wait0 = comm.stats().comm_seconds;
  const analytics::RunInfo info = call();
  return {0.0, info.comm_bytes, info.supersteps,
          comm.stats().comm_seconds - wait0};
}

struct Fig8Outputs {
  count_t components = 0;
  std::vector<count_t> sssp;  ///< size n_total
};

/// The eight Fig-8 programs with bench_fig8_analytics' caps.
std::array<ProgramRun, 8> run_fig8_programs(sim::Comm& comm,
                                            const graph::DistGraph& g,
                                            const graph::DistGraph& gd,
                                            const engine::Config& cfg,
                                            Tracer& tr, Fig8Outputs& out) {
  std::array<ProgramRun, 8> runs;
  const auto run = [&](int i, auto&& body) {
    const auto k = static_cast<std::size_t>(i);
    ProgramRun& r = runs[k];
    const double s =
        measure(tr, std::string("engine.") + kPrograms[k], [&] { r = body(); });
    r.seconds = s;
  };
  run(0, [&] {  // supersteps: the sum of the sources' eccentricities
    return from_entry_point(comm, [&] {
      return analytics::harmonic_centrality(comm, g, 8, 5, cfg).info;
    });
  });
  run(1, [&] {
    analytics::KCoreProgram kc;
    engine::Config c = cfg;
    c.max_supersteps = 15;
    return from_stats(engine::run(comm, g, kc, c));
  });
  run(2, [&] {
    analytics::CommLpProgram lp;
    engine::Config c = cfg;
    c.max_supersteps = 10;
    return from_stats(engine::run(comm, g, lp, c));
  });
  run(3, [&] {
    analytics::PageRankProgram pr;
    engine::Config c = cfg;
    c.max_supersteps = 20;
    c.coalesce_every = 0;
    return from_stats(engine::run(comm, g, pr, c));
  });
  run(4, [&] {
    return from_entry_point(
        comm, [&] { return analytics::largest_scc(comm, gd, cfg).info; });
  });
  run(5, [&] {
    analytics::WccProgram wcc;
    const engine::Stats st = engine::run(comm, g, wcc, cfg);
    out.components = wcc.num_components;
    return from_stats(st);
  });
  run(6, [&] {
    analytics::DeltaSsspProgram sp;
    sp.root = kSsspRoot;
    sp.delta = kSsspDelta;
    sp.max_weight = kSsspMaxWeight;
    sp.weight_seed = kSsspWeightSeed;
    const engine::Stats st = engine::run(comm, g, sp, cfg);
    out.sssp = std::move(sp.dist);
    return from_stats(st);
  });
  run(7, [&] {
    analytics::TriangleCountProgram tc;
    tc.sample_cap = 64;
    tc.seed = 1;
    engine::Config c = cfg;
    c.max_supersteps = 1;
    return from_stats(engine::run(comm, g, tc, c));
  });
  return runs;
}

/// Build `el` again with the partition's labels as the owner map (the
/// layout the downstream job runs on).
graph::DistGraph migrate(sim::Comm& comm, const graph::DistGraph& g,
                         const std::vector<part_t>& parts,
                         const graph::EdgeList& el) {
  const std::vector<part_t> global = core::gather_global_parts(comm, g, parts);
  auto owners = std::make_shared<const std::vector<int>>(global.begin(),
                                                         global.end());
  return graph::build_dist_graph(
      comm, el, graph::VertexDist::explicit_map(el.n, comm.size(), owners));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// A backlog grows when the second half of the trace waits for a slot
// more than twice as long as the first half did, with a 100 ms floor
// so that near-zero waits do not trip it.
constexpr double kBacklogFloorSeconds = 0.1;

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Everything one run collects; rank 0 owns it.
struct RunState {
  const Spec& spec;
  const Options& opt;
  const Inputs& in;
  const References& ref;
  core::Params params;
  serve::ServeConfig serve_cfg;
  std::vector<double> gen_s;  ///< per set-up, measured before the world
  Report report;
};

void check(sim::Comm& comm, RunState& rs, bool local_ok,
           const std::string& what, bool output_check) {
  const bool ok = comm.allreduce_and(local_ok);
  if (comm.rank() == 0) rs.report.check(ok, what, output_check);
}

/// One repeat of the Fig-8 job: the eight programs on the partitioned
/// layout, then the WCC and SSSP checks. Returns the analytics time,
/// the sum over programs of each one's max over ranks.
double fig8_repeat(sim::Comm& comm, RunState& rs, const graph::DistGraph& g,
                   const graph::DistGraph& gd, Tracer& tr, Ledger& led,
                   count_t& bytes) {
  comm.barrier();
  Fig8Outputs out;
  const std::array<ProgramRun, 8> runs = run_fig8_programs(
      comm, g, gd, engine::Config::from_params(rs.params), tr, out);
  std::vector<double> secs;
  for (const ProgramRun& r : runs) {
    secs.push_back(r.seconds);
    bytes += r.bytes;
  }
  comm.allreduce_max(secs);
  double total = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string p = std::string("engine.") + kPrograms[i];
    total += secs[i];
    led.maxed[p + "_s"] = secs[i];
    led.maxed[p + "_supersteps"] = static_cast<double>(runs[i].supersteps);
    led.summed[p + "_bytes"] = static_cast<double>(runs[i].bytes);
    led.maxed[p + "_exchange_s"] = runs[i].exchange_s;
  }
  check(comm, rs, out.components == rs.ref.components,
        "WCC component count equals the serial count", true);
  bool sssp_ok = true;
  for (lid_t v = 0; v < g.n_local(); ++v)
    if (out.sssp[v] != rs.ref.sssp[g.gid_of(v)]) sssp_ok = false;
  check(comm, rs, sssp_ok, "SSSP distances equal serial Dijkstra's", true);
  return total;
}

/// One repeat of the serving job: the whole trace through one
/// Scheduler, every result checked against the serial BFS, and the
/// queue wait of the trace's two halves compared. Returns the wall
/// time of Scheduler::run, max over ranks.
double serve_repeat(sim::Comm& comm, RunState& rs, const graph::DistGraph& g,
                    Tracer& tr, Ledger& led, count_t& bytes) {
  comm.barrier();
  const sim::CommStats c0 = comm.stats();
  serve::Scheduler sched(rs.serve_cfg);
  std::vector<serve::QueryResult> res;
  double wall = measure(tr, "serve.run",
                        [&] { res = sched.run(comm, g, rs.ref.queries); });
  const sim::CommStats c1 = comm.stats();
  const count_t serve_bytes = c1.bytes_sent - c0.bytes_sent;
  bytes += serve_bytes;
  wall = comm.allreduce_max(wall);
  bool ok = res.size() == rs.ref.expected.size();
  std::vector<double> wait, first_half, second_half;
  for (std::size_t i = 0; ok && i < res.size(); ++i) {
    const serve::QueryResult& want = rs.ref.expected[i];
    ok = res[i].kind == want.kind && res[i].value == want.value &&
         res[i].score == want.score;
    const double w = res[i].start_seconds - res[i].arrival_seconds;
    wait.push_back(w);
    (2 * i < res.size() ? first_half : second_half).push_back(w);
  }
  check(comm, rs, ok, "serving results equal serial BFS", true);
  const double w1 = mean(first_half), w2 = mean(second_half);
  check(comm, rs, w2 <= 2.0 * w1 + kBacklogFloorSeconds,
        "no growing serving backlog", false);
  const serve::ServeStats& st = sched.stats();
  const auto nq = static_cast<double>(res.size());
  led.maxed["serve.qps"] = wall > 0.0 ? nq / wall : 0.0;
  led.maxed["serve.p50_ms"] = st.p50_latency * 1e3;
  led.maxed["serve.p99_ms"] = st.p99_latency * 1e3;
  led.maxed["serve.supersteps"] = static_cast<double>(st.supersteps);
  led.maxed["serve.slot_occupancy"] = st.slot_occupancy;
  led.maxed["serve.supersteps_per_query"] = st.supersteps_per_query;
  led.maxed["serve.collectives_per_query"] =
      static_cast<double>(c1.collectives - c0.collectives) / nq;
  led.summed["serve.bytes_per_query"] = static_cast<double>(serve_bytes) / nq;
  led.maxed["serve.queue_wait_p99_ms"] =
      wait.empty() ? 0.0 : percentile(wait, 0.99) * 1e3;
  led.maxed["serve.queue_wait_first_half_ms"] = w1 * 1e3;
  led.maxed["serve.queue_wait_second_half_ms"] = w2 * 1e3;
  led.maxed["serve.wall_per_superstep_us"] =
      st.supersteps > 0 ? wall / static_cast<double>(st.supersteps) * 1e6
                        : 0.0;
  return wall;
}

void run_rank(sim::Comm& comm, RunState& rs) {
  const Spec& spec = rs.spec;
  const Options& opt = rs.opt;
  const bool root = comm.rank() == 0;
  const bool partitions = spec.kind != Kind::kServe;
  const int setups = static_cast<int>(rs.gen_s.size());
  const graph::VertexDist dist =
      initial_dist(spec.kind, rs.in.el.n, comm.size());

  // --- Set-up: build the distributed graph `setups` times.
  std::optional<graph::DistGraph> g;
  std::vector<double> build_s;
  for (int i = 0; i < setups; ++i) {
    g.reset();
    comm.barrier();
    Timer t;
    g.emplace(graph::build_dist_graph(comm, rs.in.el, dist));
    build_s.push_back(t.seconds());
  }
  comm.allreduce_max(build_s);

  // --- Repeats until the budget is spent. Traced runs alternate an
  // untraced repeat with a traced one. The minimum makes every check
  // on every run: two untraced repeats compare labels across repeats,
  // and a traced run's third repeat is its second untraced one.
  Tracer off(false), on(true);
  std::optional<graph::DistGraph> ga, gd;  // fig8: the partitioned layout
  double migrate_s = 0.0;
  std::vector<part_t> first;  // the first repeat's labels
  std::vector<double> part_s, job_s;  // per repeat, max over ranks
  std::vector<double> traced_e2e, untraced_e2e;
  std::vector<Reduced> traced;
  Ledger last;  // the last repeat's ledger
  double wire_mb = 0.0;
  const int min_repeats = opt.trace ? 3 : 2;
  Timer budget;
  for (int rep = 0;; ++rep) {
    const bool more = rep < min_repeats || budget.seconds() < opt.seconds;
    if (!comm.allreduce_or(root && more)) break;
    const bool traced_rep = opt.trace && rep % 2 == 1;
    Tracer& tr = traced_rep ? on : off;
    tr.clear();
    Ledger led;
    count_t bytes = 0;  // this rank's payload in the repeat

    double ps = 0.0;
    if (partitions) {
      comm.barrier();
      const count_t bytes0 = comm.stats().bytes_sent;
      std::vector<part_t> parts;
      if (traced_rep) {
        parts = traced_partition(comm, *g, rs.params, tr, led);
        ps = led.maxed["core.partition_s"];
      } else {
        core::PartitionResult r = core::partition(comm, *g, rs.params);
        ps = r.total_seconds;
        parts = std::move(r.parts);
      }
      bytes += comm.stats().bytes_sent - bytes0;
      ps = comm.allreduce_max(ps);
      const bool consistent = core::check_partition_consistent(
          comm, *g, parts, rs.params.nparts);
      if (root) rs.report.check(consistent, "partition consistent", true);
      if (rep == 0) {
        first = std::move(parts);
      } else {
        check(comm, rs, parts == first,
              traced_rep ? "traced labels equal core::partition's"
                         : "labels equal across repeats",
              true);
      }
    }

    double js = 0.0;
    if (spec.kind == Kind::kFig8) {
      if (rep == 0) {
        comm.barrier();
        Timer t;
        ga.emplace(migrate(comm, *g, first, rs.in.el));
        gd.emplace(migrate(comm, *g, first, rs.in.directed));
        migrate_s = comm.allreduce_max(t.seconds());
      }
      js = fig8_repeat(comm, rs, *ga, *gd, tr, led, bytes);
    } else if (spec.kind == Kind::kServe) {
      js = serve_repeat(comm, rs, *g, tr, led, bytes);
    }

    part_s.push_back(ps);
    job_s.push_back(js);
    (traced_rep ? traced_e2e : untraced_e2e).push_back(ps + js);
    wire_mb = static_cast<double>(comm.allreduce_sum(bytes)) / 1e6;
    last = led;
    if (traced_rep) {
      led.maxed["comm.wire_mb"] = wire_mb;
      traced.push_back(reduce(comm, led));
    }
  }

  // --- Quality of the partition (identical on every repeat).
  metrics::QualityReport q;
  double evaluate_s = 0.0;
  if (partitions) {
    Timer te;
    q = metrics::evaluate_dist(comm, *g, first, rs.params.nparts);
    evaluate_s = comm.allreduce_max(te.seconds());
    const double n_per_part = static_cast<double>(rs.in.el.n) /
                              static_cast<double>(rs.params.nparts);
    const double e_per_part = 2.0 * static_cast<double>(q.edges) /
                              static_cast<double>(rs.params.nparts);
    const auto within = [](double ratio, double per_part, double eps) {
      return ratio * per_part <= std::ceil((1.0 + eps) * per_part) + 1e-6;
    };
    if (root) {
      rs.report.check(
          within(q.vertex_imbalance, n_per_part, rs.params.vert_imbalance),
          "vertex balance within (1+eps)", false);
      rs.report.check(
          within(q.edge_imbalance, e_per_part, rs.params.edge_imbalance),
          "edge balance within (1+eps)", false);
    }
  }

  // --- Width 1 against the workload's width: the same phase calls on
  // one thread, and a standalone PhaseScan at both widths.
  std::optional<Reduced> t1;
  double scan_t1 = 0.0, scan_tn = 0.0;
  if (opt.trace && partitions && spec.shape.threads > 1) {
    core::Params p1 = rs.params;
    p1.num_threads = 1;
    Tracer tr1(true);
    Ledger led1;
    const std::vector<part_t> parts1 =
        traced_partition(comm, *g, p1, tr1, led1);
    t1 = reduce(comm, led1);
    check(comm, rs, parts1 == first, "labels equal at 1 and 4 threads", true);
    if (comm.size() == 1) {
      core::PhaseScan scan;
      const auto time_scan = [&](int width) {
        par::ThreadScope ts(width);
        scan.scan(*g, first, rs.params.nparts, core::PhaseScan::Weight::kDegree);
        std::vector<double> t;
        for (int r = 0; r < 5; ++r) {
          Timer tm;
          scan.scan(*g, first, rs.params.nparts,
                    core::PhaseScan::Weight::kDegree);
          t.push_back(tm.seconds());
        }
        return median(t);
      };
      scan_t1 = time_scan(1);
      scan_tn = time_scan(spec.shape.threads);
    }
  }

  if (!root) return;
  Report& rep = rs.report;
  std::vector<double> setup;
  for (int i = 0; i < setups; ++i)
    setup.push_back(rs.gen_s[static_cast<std::size_t>(i)] +
                    build_s[static_cast<std::size_t>(i)]);
  std::vector<Metric> quality;
  if (partitions)
    quality = {{"edge_cut_ratio", q.edge_cut_ratio, "ratio"},
               {"scaled_max_cut", q.scaled_max_cut, "ratio"},
               {"vertex_imbalance", q.vertex_imbalance, "ratio"},
               {"edge_imbalance", q.edge_imbalance, "ratio"}};
  if (!opt.trace) {
    rep.set("setup_s", median(setup));
    rep.set("end_to_end_s", median(untraced_e2e));
    // peak_rss_mb is read after the world ends.
    if (partitions) rep.details.push_back({"partition_s", median(part_s), "s"});
    rep.details.insert(rep.details.end(), quality.begin(), quality.end());
    rep.details.push_back({"wire_mb", wire_mb, "MB"});
    if (spec.kind == Kind::kFig8)
      rep.details.push_back({"analytics_s", median(job_s), "s"});
    if (spec.kind == Kind::kServe) {
      std::vector<double> qps;
      for (const double s : job_s)
        qps.push_back(static_cast<double>(rs.ref.queries.size()) / s);
      rep.details.push_back({"serve_qps", median(qps), "1/s"});
      rep.details.push_back({"serve_p50_ms", last.maxed["serve.p50_ms"], "ms"});
      rep.details.push_back({"serve_p99_ms", last.maxed["serve.p99_ms"], "ms"});
    }
    return;
  }
  for (const Metric& m : quality) rep.set("metrics." + m.name, m.value);

  // Per-layer values: the median over traced repeats of each metric.
  std::map<std::string, std::vector<double>> samples;
  for (const Reduced& r : traced) {
    for (const auto& [k, v] : r.max) samples[k].push_back(v);
    for (const auto& [k, v] : r.sum) samples[k].push_back(v);
    if (partitions) {
      for (const char* ph : kPhases) {
        const std::string k = std::string("core.") + ph + "_busy_s";
        const double lo = r.min.at(k);
        samples[std::string("core.") + ph + "_skew"].push_back(
            lo > 0.0 ? r.max.at(k) / lo : 0.0);
      }
      const double coverage = r.min.at("core.span_coverage");
      samples["core.span_coverage"].push_back(coverage);
      rep.check(coverage >= 0.95, "core spans cover 95% of the partition",
                false);
    }
    double analytics_s = 0.0;
    for (const char* prog : kPrograms) {
      const auto it = r.max.find(std::string("engine.") + prog + "_s");
      if (it != r.max.end()) analytics_s += it->second;
    }
    samples["engine.analytics_s"].push_back(analytics_s);
  }
  for (const MetricDef& m : layer_metrics()) {
    const auto it = samples.find(m.name);
    if (it != samples.end()) rep.set(m.name, median(it->second));
  }
  rep.set("gen.s", median(rs.gen_s));
  rep.set("graph.build_s", median(build_s));
  rep.set("graph.migrate_s", migrate_s);
  rep.set("metrics.evaluate_s", evaluate_s);
  rep.set("trace.overhead_s", median(traced_e2e) - median(untraced_e2e));
  if (t1) {
    const auto speedup = [&](const std::string& k) {
      const double tn = median(samples.at(k));
      return tn > 0.0 ? t1->max.at(k) / tn : 0.0;
    };
    for (int p = kFirstMovingPhase; p < static_cast<int>(kPhases.size()); ++p) {
      const std::string ph = kPhases[static_cast<std::size_t>(p)];
      rep.set("core." + ph + "_speedup", speedup("core." + ph + "_s"));
    }
    rep.set("core.partition_speedup", speedup("core.partition_s"));
  }
  if (scan_tn > 0.0) {
    rep.set("core.scan_s_t1", scan_t1);
    rep.set("core.scan_s_t4", scan_tn);
    rep.set("core.scan_speedup", scan_t1 / scan_tn);
  }
}

constexpr std::size_t kMaxSetups = 64;

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : specs())
    if (s.shape.name == name) return s;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

void Report::check(bool ok, const std::string& what, bool output_check) {
  if (std::find(checked.begin(), checked.end(), what) == checked.end()) {
    checked.push_back(what);
    ++attempted;
  }
  if (ok || std::find(failures.begin(), failures.end(), what) != failures.end())
    return;
  ++failed;
  if (output_check) correct = false;
  failures.push_back(what);
}

void Report::set(const std::string& name, double value) {
  for (Metric& m : metrics)
    if (m.name == name) {
      if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
      m.value = value;
      return;
    }
  throw std::logic_error("metric " + name + " is not in the run's table");
}

namespace {

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(17);
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    o << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
      << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  o << "}";
  return o.str();
}

}  // namespace

std::string Report::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": " << metrics_json(metrics) << "}";
  return o.str();
}

std::string Report::details_json() const {
  std::ostringstream o;
  o << "{\"details\": " << metrics_json(details) << ", \"failed_checks\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    o << (i ? ", " : "") << '"' << failures[i] << '"';
  o << "]}";
  return o.str();
}

const std::vector<WorkloadShape>& workloads() {
  static const std::vector<WorkloadShape> shapes = [] {
    std::vector<WorkloadShape> v;
    for (const Spec& s : specs()) v.push_back(s.shape);
    return v;
  }();
  return shapes;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  return CPU_COUNT(&set);
}

Report run_workload(const Options& opt) {
  const Spec& spec = find_spec(opt.workload);
  const int need = spec.shape.ranks * spec.shape.threads;
  if (need > available_cpus())
    throw std::runtime_error(
        "workload " + spec.shape.name + " needs " + std::to_string(need) +
        " CPUs (ranks x threads) but only " +
        std::to_string(available_cpus()) + " are available");

  // Set up at least nine times and for at least a second of
  // generation, so that the median of a small graph's set-up is steady.
  Inputs in;
  std::vector<double> gen_s;
  double gen_total = 0.0;
  while (gen_s.empty() ||
         (!opt.smoke && gen_s.size() < kMaxSetups &&
          (gen_s.size() < 9 || gen_total < 1.0))) {
    in = Inputs{};
    Timer t;
    in = generate(spec.kind, opt.smoke);
    gen_s.push_back(t.seconds());
    gen_total += gen_s.back();
  }
  const serve::ServeConfig serve_cfg;  // 8 slots, default transport
  const References ref =
      make_references(spec.kind, in, opt.smoke, serve_cfg.ppr_alpha);

  RunState rs{spec, opt, in, ref, params_for(spec), serve_cfg, gen_s, {}};
  for (const MetricDef& m : opt.trace ? layer_metrics() : end_to_end_metrics())
    rs.report.metrics.push_back({m.name, 0.0, m.unit});
  sim::run_world(
      spec.shape.ranks, [&](sim::Comm& comm) { run_rank(comm, rs); },
      spec.kind == Kind::kServe ? 2 : 1);
  if (!opt.trace) rs.report.set("peak_rss_mb", peak_rss_mb());
  return rs.report;
}

}  // namespace perfbench
