// whatif_service: an in-process svc::Server on a Unix socket with two
// scheduler workers and two closed-loop client connections. Each client
// opens one session at set-up; then, round by round and in lockstep, both
// clients submit the same fresh instance (client 1 a task-rotated copy, so
// the two requests are in-flight duplicates under one fingerprint), and
// each client mixes four repeat submits of earlier instances (canonical
// cache hits) with one revise step along its session's cyclic edit chain.
//
// A pass is one round per pool system. Fresh instances carry a per-pass
// name prefix, which makes them new to the result cache while solving
// exactly like the pool system whose reference optimum they are checked
// against. The run makes whole passes, stopping at the pass boundary
// nearest to --seconds.

#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "instances.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace alloc = optalloc::alloc;
namespace obs = optalloc::obs;
namespace svc = optalloc::svc;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Repeat submits per client and round, beside one fresh submit and one
/// revise. The mix is an assumption, not a measurement; README.md gives
/// the reasoning and which kind of op sets each percentile.
constexpr int kRepeatsPerRound = 4;
/// Repeats draw from this many most recent fresh instances, well inside
/// the result cache's capacity.
constexpr std::size_t kRepeatWindow = 64;
/// Fewest rounds a run measures: 100 revises, so the revise p90 has ten
/// samples beyond it.
constexpr int kMinRounds = 50;
/// Goodput latency limits, well above today's p90.
constexpr double kSubmitLimitMs = 2000.0;
constexpr double kReviseLimitMs = 2000.0;

enum class Kind { kFresh, kRepeat, kRevise };

struct OpRecord {
  Kind kind = Kind::kFresh;
  double latency_ms = 0.0;
  bool ok = false;
  bool cached = false;
  double queue_ms = 0.0, solve_ms = 0.0, total_ms = 0.0;
  double sat_calls = 0.0, groups_added = 0.0, clauses_added = 0.0;
};

/// A task placement is legal: every task on an ECU it may run on, and no
/// separated pair sharing an ECU. Replies carry only the placement, so
/// this is the part of rt::verify a client can check.
bool placement_ok(const alloc::Problem& p, const obs::JsonValue& reply) {
  const obs::JsonValue* ecus = reply.get("task_ecu");
  const auto& tasks = p.tasks.tasks;
  if (ecus == nullptr || ecus->array.size() != tasks.size()) return false;
  std::vector<int> at;
  for (const obs::JsonValue& e : ecus->array) {
    at.push_back(static_cast<int>(e.number));
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (!tasks[t].allowed_on(at[t])) return false;
    for (const int s : tasks[t].separated_from) {
      if (at[static_cast<std::size_t>(s)] == at[t]) return false;
    }
  }
  return true;
}

std::string submit_line(const alloc::Problem& p) {
  return obs::JsonObject()
      .str("verb", "submit")
      .str("problem", problem_text(p))
      .str("objective", "sum-trt")
      .num("threads", std::int64_t{1})
      .boolean("wait", true)
      .build();
}

struct Connection {
  int fd = -1;
  std::string buffer;

  /// One request/response exchange; false on a broken connection.
  bool exchange(const std::string& line, std::string& reply) {
    return svc::send_line(fd, line) && svc::recv_line(fd, buffer, reply);
  }
};

bool reply_ok(const obs::JsonValue& reply) {
  const obs::JsonValue* ok = reply.get("ok");
  return ok != nullptr && ok->kind == obs::JsonValue::Kind::kBool && ok->b;
}

bool flag(const obs::JsonValue& reply, const char* key) {
  const obs::JsonValue* v = reply.get(key);
  return v != nullptr && v->kind == obs::JsonValue::Kind::kBool && v->b;
}

double number(const obs::JsonValue& reply, const char* key) {
  return reply.get_number(key).value_or(0.0);
}

/// Checks a solve answer against its reference: the proven optimum with a
/// legal placement, or proven infeasibility.
bool answer_ok(const obs::JsonValue& reply, const Reference& ref,
               const alloc::Problem& p) {
  if (!reply_ok(reply)) return false;
  const std::string status = reply.get_string("status").value_or("");
  if (ref.status == "infeasible") return status == "infeasible";
  return status == "optimal" && flag(reply, "proven_optimal") &&
         static_cast<std::int64_t>(number(reply, "cost")) == ref.cost &&
         placement_ok(p, reply);
}

/// One live server with its client connections and open sessions.
struct Service {
  std::unique_ptr<svc::Server> server;
  std::thread loop;
  Connection conn[kClients];
  std::string session[kClients];
  double setup_s = 0.0;
  double open_s = 0.0;  ///< both session_open round trips

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { stop(); }

  void stop() {
    for (Connection& c : conn) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    if (server) server->request_stop();
    if (loop.joinable()) loop.join();
    server.reset();
  }
};

struct Inputs {
  std::map<std::string, Reference> refs;
  std::vector<Instance> pool;
  std::vector<Instance> bases;
  std::vector<std::vector<ChainStep>> chains;
  std::map<std::string, alloc::Problem> states;  ///< chain state problems
};

Inputs make_inputs(const RunOptions& options) {
  Inputs in;
  in.refs = load_references(options.reference_path);
  for (int k = 0; k < kPoolSize; ++k) in.pool.push_back(pool_instance(k));
  for (int c = 0; c < kClients; ++c) {
    in.bases.push_back(session_base(c));
    in.chains.push_back(session_chain(in.bases.back(), c));
    for (Instance& s : session_states(c)) {
      in.states.emplace(s.id, std::move(s.problem));
    }
  }
  for (const auto& [id, problem] : in.states) {
    if (!in.refs.count(id)) {
      throw std::runtime_error("no reference optimum for " + id);
    }
  }
  for (const Instance& inst : in.pool) {
    if (!in.refs.count(inst.id)) {
      throw std::runtime_error("no reference optimum for " + inst.id);
    }
  }
  return in;
}

/// Set-up: inputs, server start, client connects and every session_open.
std::unique_ptr<Service> set_up(const RunOptions& options, Inputs& in,
                                const std::string& socket_path) {
  const auto t0 = Clock::now();
  in = make_inputs(options);
  auto s = std::make_unique<Service>();
  svc::ServerOptions server_options;
  server_options.scheduler.workers = kWorkers;
  s->server = std::make_unique<svc::Server>(server_options);
  if (!s->server->listen_unix(socket_path)) {
    throw std::runtime_error("cannot listen on " + socket_path);
  }
  s->loop = std::thread([srv = s->server.get()] { srv->run(); });
  for (int c = 0; c < kClients; ++c) {
    s->conn[c].fd = svc::connect_unix_retry(socket_path);
    if (s->conn[c].fd < 0) throw std::runtime_error("cannot connect");
  }
  for (int c = 0; c < kClients; ++c) {
    const Instance& base = in.bases[static_cast<std::size_t>(c)];
    const std::string line = obs::JsonObject()
                                 .str("verb", "session_open")
                                 .str("problem", problem_text(base.problem))
                                 .str("objective", base.objective)
                                 .build();
    std::string raw;
    const auto t_open = Clock::now();
    const bool sent = s->conn[c].exchange(line, raw);
    s->open_s += seconds_since(t_open);
    const auto reply = sent ? obs::json_parse(raw) : std::nullopt;
    if (!reply || !answer_ok(*reply, in.refs.at(base.id), base.problem)) {
      throw std::runtime_error("session_open failed for " + base.id);
    }
    s->session[c] = reply->get_string("session").value_or("");
  }
  s->setup_s = seconds_since(t0);
  return s;
}

/// State shared by both clients, advanced by the barrier's completion step
/// (which runs on one thread while the other waits).
struct Schedule {
  const RunOptions* options = nullptr;
  Clock::time_point t_run;
  Clock::time_point t_pass;
  int round = -1;  ///< global round index, -1 before the first
  bool stop = false;
  std::vector<double> traced_pass_s, untraced_pass_s;
  std::vector<double> setup_s, open_s;
  bool setup_failed = false;

  void advance() noexcept {
    ++round;
    if (round % kPoolSize != 0 || round == 0) return;
    const int finished = round / kPoolSize - 1;
    const double pass_s = seconds_since(t_pass);
    (traced(finished) ? traced_pass_s : untraced_pass_s).push_back(pass_s);
    // Stop at the pass boundary nearest to --seconds.
    stop = seconds_since(t_run) + 0.5 * pass_s >= options->seconds &&
           round >= kMinRounds;
    if (!stop) set_up_again();
    t_pass = Clock::now();
  }
  bool traced(int pass) const { return options->trace && pass % 2 == 1; }

  /// One more complete set-up (and teardown) of a second server while both
  /// clients wait: spread over the run, the set-ups see the same host
  /// phases as the passes, which steadies their median.
  void set_up_again() noexcept {
    try {
      Inputs scratch;
      const auto extra =
          set_up(*options, scratch, options->socket_path + ".setup");
      setup_s.push_back(extra->setup_s);
      open_s.push_back(extra->open_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      setup_failed = true;
    }
  }
};

/// The barrier's completion step.
struct Advance {
  Schedule* schedule;
  void operator()() noexcept { schedule->advance(); }
};

/// The fresh instance of a round: pool system `k` under the round's pass
/// prefix; `rotated` is client 1's task-rotated copy.
struct Fresh {
  int k = 0;
  int pass = 0;
  int rotation = 1;
};

Fresh fresh_of(std::uint64_t seed, int round) {
  const int pass = round / kPoolSize;
  std::vector<int> order(kPoolSize);
  for (int k = 0; k < kPoolSize; ++k) order[static_cast<std::size_t>(k)] = k;
  Draw pass_draw(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(pass));
  pass_draw.shuffle(order);
  Draw round_draw(seed * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(round));
  return {order[static_cast<std::size_t>(round % kPoolSize)], pass,
          1 + static_cast<int>(round_draw.below(9))};
}

alloc::Problem fresh_problem(const Inputs& in, const Fresh& f, bool rotated) {
  alloc::Problem p = prefix_names(in.pool[static_cast<std::size_t>(f.k)].problem,
                                  "p" + std::to_string(f.pass) + "_");
  return rotated ? rotate_tasks(p, f.rotation) : p;
}

struct ClientRun {
  std::vector<OpRecord> ops;
  std::vector<Span> spans;
};

void client_loop(int c, const RunOptions& options, const Inputs& in,
                 Service& service, Schedule& schedule,
                 std::barrier<Advance>& barrier,
                 ClientRun& out) {
  Connection& conn = service.conn[c];
  Tracer tracer(schedule.t_run);
  const std::vector<ChainStep>& chain = in.chains[static_cast<std::size_t>(c)];
  std::size_t chain_pos = 0;
  Draw draw(options.seed * 0x94d049bb133111ebULL + static_cast<std::uint64_t>(c));

  // One client op: build the request, exchange it, check the reply.
  // `edits` is empty for a submit of `problem`.
  auto run_op = [&](Kind kind, const alloc::Problem& problem,
                    const Reference& ref, const std::string& edits) {
    OpRecord rec;
    rec.kind = kind;
    tracer.begin_op("op");
    int span = tracer.open("bench.request");
    const std::string line =
        kind == Kind::kRevise
            ? "{\"verb\":\"revise\",\"session\":\"" + service.session[c] +
                  "\",\"edits\":" + edits + "}"
            : submit_line(problem);
    tracer.close(span);
    // A revise reply reports only its solve time, so the rest of the
    // round trip (socket, protocol, patch and re-encode) is a gap; a
    // submit's rest is the socket and protocol layer (svc.overhead_ms).
    span = kind == Kind::kRevise ? tracer.open("svc.revise", /*gap=*/true)
                                 : tracer.open("svc.submit");
    const auto t0 = Clock::now();
    std::string raw;
    const bool sent = conn.exchange(line, raw);
    rec.latency_ms = seconds_since(t0) * 1000.0;
    tracer.close(span);
    const int check = tracer.open("bench.check");
    const auto reply = sent ? obs::json_parse(raw) : std::nullopt;
    if (reply) {
      rec.ok = answer_ok(*reply, ref, problem);
      rec.cached = flag(*reply, "cached");
      rec.solve_ms = number(*reply, "solve_ms");
      rec.sat_calls = number(*reply, "sat_calls");
      if (kind == Kind::kRevise) {
        rec.groups_added = number(*reply, "groups_added");
        rec.clauses_added = number(*reply, "clauses_added");
        if (ref.status == "infeasible") {
          const obs::JsonValue* core = reply->get("unsat_core");
          rec.ok = rec.ok && core != nullptr && !core->array.empty();
        }
        tracer.derive(span, "inc.solve", rec.solve_ms / 1000.0);
      } else {
        rec.queue_ms = number(*reply, "queue_ms");
        rec.total_ms = number(*reply, "total_ms");
        tracer.derive(span, "svc.queue", rec.queue_ms / 1000.0);
        tracer.derive(span, "svc.solve", rec.solve_ms / 1000.0);
        tracer.derive(span, "svc.sched",
                      (rec.total_ms - rec.queue_ms - rec.solve_ms) / 1000.0);
      }
    }
    tracer.close(check);
    tracer.end_op();
    out.ops.push_back(rec);
  };

  for (;;) {
    barrier.arrive_and_wait();
    if (schedule.stop) break;
    const int round = schedule.round;
    tracer.set_enabled(schedule.traced(round / kPoolSize));

    const Fresh fresh = fresh_of(options.seed, round);
    const Instance& pool = in.pool[static_cast<std::size_t>(fresh.k)];
    const alloc::Problem mine = fresh_problem(in, fresh, c == 1);
    run_op(Kind::kFresh, mine, in.refs.at(pool.id), "");

    // The revise takes a seed-drawn slot among the repeats.
    const std::size_t revise_at = draw.below(kRepeatsPerRound + 1);
    for (std::size_t slot = 0; slot <= kRepeatsPerRound; ++slot) {
      if (slot == revise_at) {
        const ChainStep& step = chain[chain_pos];
        chain_pos = (chain_pos + 1) % chain.size();
        run_op(Kind::kRevise, in.states.at(step.state_id),
               in.refs.at(step.state_id), step.edits_json);
        continue;
      }
      const std::size_t window =
          std::min<std::size_t>(kRepeatWindow, static_cast<std::size_t>(round) + 1);
      const int earlier = round - static_cast<int>(draw.below(window));
      const Fresh old = fresh_of(options.seed, earlier);
      const bool rotated = draw.below(2) == 1;
      run_op(Kind::kRepeat, fresh_problem(in, old, rotated),
             in.refs.at(in.pool[static_cast<std::size_t>(old.k)].id), "");
    }
  }
  out.spans = tracer.spans();
}

}  // namespace

RunResult run_service(const RunOptions& options) {
  RunResult result;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  Inputs in;
  const std::unique_ptr<Service> service =
      set_up(options, in, options.socket_path);

  RunTimes times;
  times.kernel_start_ms = reference_kernel_ms();
  Schedule schedule;
  schedule.options = &options;
  schedule.t_run = schedule.t_pass = Clock::now();
  schedule.setup_s.push_back(service->setup_s);
  schedule.open_s.push_back(service->open_s);
  std::barrier<Advance> barrier(kClients, Advance{&schedule});
  ClientRun runs[kClients];
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      client_loop(c, options, in, *service, schedule, barrier, runs[c]);
    });
  }
  for (std::thread& t : clients) t.join();
  // The passes alone, without the set-ups between them.
  double run_s = 0.0;
  for (const double s : schedule.traced_pass_s) run_s += s;
  for (const double s : schedule.untraced_pass_s) run_s += s;
  times.kernel_end_ms = reference_kernel_ms();
  const svc::ServiceStats stats = service->server->scheduler().stats();
  if (schedule.setup_failed) result.correct = false;
  service->stop();

  std::vector<double> submit_ms, hit_ms, revise_ms, overhead_ms;
  std::vector<double> queue_ms, solve_ms, revise_solve_ms, clauses, groups,
      revise_calls;
  std::int64_t ok = 0, good = 0, attempted = 0;
  std::map<Kind, std::int64_t> kind_ops, kind_hits;
  std::vector<const OpRecord*> submits;  // for the mix at the percentiles
  std::vector<Span> spans;
  for (const ClientRun& run : runs) {
    for (const OpRecord& op : run.ops) {
      ++attempted;
      ++kind_ops[op.kind];
      kind_hits[op.kind] += op.cached ? 1 : 0;
      const bool revise = op.kind == Kind::kRevise;
      ok += op.ok ? 1 : 0;
      good += op.ok && op.latency_ms <=
                           (revise ? kReviseLimitMs : kSubmitLimitMs)
                  ? 1
                  : 0;
      if (revise) {
        revise_ms.push_back(op.latency_ms);
        revise_solve_ms.push_back(op.solve_ms);
        clauses.push_back(op.clauses_added);
        groups.push_back(op.groups_added);
        revise_calls.push_back(op.sat_calls);
        continue;
      }
      submit_ms.push_back(op.latency_ms);
      submits.push_back(&op);
      overhead_ms.push_back(op.latency_ms - op.total_ms);
      if (op.cached) hit_ms.push_back(op.latency_ms);
      if (op.kind == Kind::kFresh) {
        queue_ms.push_back(op.queue_ms);
        solve_ms.push_back(op.solve_ms);
      }
    }
    append_spans(spans, run.spans);
  }
  const int fresh_distinct = schedule.round;  // rounds completed
  const auto n = static_cast<double>(attempted);
  result.attempted = attempted;
  result.failed = attempted - ok;
  std::fprintf(stderr,
               "perfbench: whatif_service seed=%llu ops=%lld rounds=%d "
               "measured=%.2fs p90 over %zu submits (%zu beyond), revise p90 over "
               "%zu (%zu beyond); kernel %.1f -> %.1f ms\n",
               static_cast<unsigned long long>(options.seed),
               static_cast<long long>(attempted), fresh_distinct, run_s,
               submit_ms.size(), samples_beyond(submit_ms.size(), 90),
               revise_ms.size(), samples_beyond(revise_ms.size(), 90),
               times.kernel_start_ms, times.kernel_end_ms);
  // The traffic mix as run, and which kind of submit sits at each
  // reported percentile.
  std::sort(submits.begin(), submits.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return a->latency_ms < b->latency_ms;
            });
  const auto at_rank = [&](double p) {
    const std::size_t rank = submits.size() - samples_beyond(submits.size(), p);
    const OpRecord* op = submits[rank == 0 ? 0 : rank - 1];
    return op->kind == Kind::kFresh ? (op->cached ? "fresh hit" : "fresh solve")
                                    : (op->cached ? "repeat hit" : "repeat solve");
  };
  std::fprintf(stderr,
               "perfbench: mix: %lld fresh submits (%lld cache hits), %lld "
               "repeat submits (%lld cache hits), %lld revises; p50 is a %s, "
               "p90 a %s\n",
               static_cast<long long>(kind_ops[Kind::kFresh]),
               static_cast<long long>(kind_hits[Kind::kFresh]),
               static_cast<long long>(kind_ops[Kind::kRepeat]),
               static_cast<long long>(kind_hits[Kind::kRepeat]),
               static_cast<long long>(kind_ops[Kind::kRevise]),
               submits.empty() ? "-" : at_rank(50),
               submits.empty() ? "-" : at_rank(90));

  e2e["setup_s"] = median(schedule.setup_s);
  e2e["throughput_rps"] = n / run_s;
  e2e["p50_ms"] = percentile(submit_ms, 50);
  e2e["p90_ms"] = percentile(submit_ms, 90);
  e2e["ok_share"] = static_cast<double>(ok) / n;
  e2e["goodput_share"] = static_cast<double>(good) / n;
  e2e["peak_rss_mb"] = peak_rss_mb();

  const auto& cache = stats.cache;
  layer["svc.queue_ms"] = mean(queue_ms);
  layer["svc.solve_ms"] = mean(solve_ms);
  layer["svc.overhead_ms"] = mean(overhead_ms);
  layer["svc.hit_p50_ms"] = percentile(hit_ms, 50);
  layer["svc.cache_hit_share"] =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
  layer["svc.redundant_solves"] =
      fresh_distinct > 0
          ? (static_cast<double>(cache.misses) - fresh_distinct) / fresh_distinct
          : 0.0;
  layer["inc.revise_solve_ms"] = mean(revise_solve_ms);
  layer["inc.clauses_added"] = mean(clauses);
  layer["inc.groups_added"] = mean(groups);
  layer["inc.sat_calls"] = mean(revise_calls);
  layer["inc.open_s"] = median(schedule.open_s);
  layer["inc.revise_p50_ms"] = percentile(revise_ms, 50);
  layer["inc.revise_p90_ms"] = percentile(revise_ms, 90);

  const LedgerSummary ledger = summarize(spans);
  if (!options.spans_path.empty() && !write_spans(options.spans_path, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.spans_path.c_str());
  }
  const auto self_ms = [&](const char* name) {
    const auto it = ledger.self_s.find(name);
    const auto count = ledger.count.find("svc.submit");
    return it == ledger.self_s.end() || count == ledger.count.end()
               ? 0.0
               : it->second * 1000.0 / static_cast<double>(count->second);
  };
  layer["svc.sched_ms"] = self_ms("svc.sched");
  layer["bench.check_ms"] =
      ledger.ops ? ledger.self_s.at("bench.check") * 1000.0 /
                       static_cast<double>(ledger.ops)
                 : 0.0;
  times.traced_pass_s = median(schedule.traced_pass_s);
  times.untraced_pass_s = median(schedule.untraced_pass_s);
  finish_result(result, options.trace, ledger, times, e2e, std::move(layer));
  return result;
}

}  // namespace perfbench
