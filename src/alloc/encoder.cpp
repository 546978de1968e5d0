#include "alloc/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "rt/analysis.hpp"
#include "util/intmath.hpp"

namespace optalloc::alloc {

using ir::NodeId;
using rt::Ticks;

namespace {

/// ECUs a task may run on: WCET defined and the ECU may host tasks.
std::vector<int> allowed_ecus(const rt::Architecture& arch,
                              const rt::Task& task) {
  std::vector<int> out;
  for (int p = 0; p < arch.num_ecus; ++p) {
    if (task.allowed_on(p) && arch.can_host_tasks(p)) out.push_back(p);
  }
  return out;
}

}  // namespace

AllocEncoder::AllocEncoder(const Problem& problem, Objective objective,
                           EncoderConfig config)
    : problem_(problem),
      objective_(objective),
      config_(config),
      owned_ctx_(std::make_unique<ir::Context>()),
      owned_solver_(std::make_unique<sat::Solver>()),
      owned_pb_(std::make_unique<pb::PbPropagator>(*owned_solver_)),
      owned_blaster_(std::make_unique<encode::BitBlaster>(
          *owned_ctx_, *owned_solver_, owned_pb_.get(),
          encode::Options{config.backend})),
      closures_(std::make_unique<net::PathClosures>(problem.arch)),
      ctx_(*owned_ctx_),
      solver_(owned_solver_.get()),
      pb_(owned_pb_.get()),
      blaster_(owned_blaster_.get()) {
  refs_ = problem_.tasks.message_refs();
}

AllocEncoder::AllocEncoder(const Problem& problem, Objective objective,
                           EncoderConfig config, EncoderBackend& backend)
    : problem_(problem),
      objective_(objective),
      config_(config),
      closures_(std::make_unique<net::PathClosures>(problem.arch)),
      ctx_(backend.ctx),
      solver_(&backend.solver),
      pb_(&backend.pb),
      blaster_(&backend.blaster),
      backend_(&backend) {
  refs_ = problem_.tasks.message_refs();
}

void AllocEncoder::require(NodeId formula) {
  asserted_.push_back(formula);
  if (backend_ != nullptr) {
    // Session mode: record, don't assert. The session asserts each group
    // under its activation literal (encode::BitBlaster::assert_guarded)
    // so an edit can retract it.
    grouped_.push_back({group_, formula});
    return;
  }
  // The paper's "translation into SAT" phase: bit-blasting one asserted
  // constraint. Timed only on request; assert_true recurses, so the timer
  // wraps the top-level call.
  static const obs::Metric t_bitblast = obs::histogram("encode.time.bitblast");
  if (obs::phase_timing()) {
    obs::ScopedTimer timer(t_bitblast);
    ok_ = blaster_->assert_true(formula) && ok_;
  } else {
    ok_ = blaster_->assert_true(formula) && ok_;
  }
}

NodeId AllocEncoder::mk_int_var(const std::string& name, std::int64_t lo,
                                std::int64_t hi) {
  if (backend_ == nullptr) return ctx_.int_var(name, lo, hi);
  auto key = std::make_tuple(name, lo, hi);
  const auto it = backend_->int_vars.find(key);
  if (it != backend_->int_vars.end()) return it->second;
  const NodeId v = ctx_.int_var(name, lo, hi);
  backend_->int_vars.emplace(std::move(key), v);
  return v;
}

NodeId AllocEncoder::mk_bool_var(const std::string& name) {
  if (backend_ == nullptr) return ctx_.bool_var(name);
  const auto it = backend_->bool_vars.find(name);
  if (it != backend_->bool_vars.end()) return it->second;
  const NodeId v = ctx_.bool_var(name);
  backend_->bool_vars.emplace(name, v);
  return v;
}

NodeId AllocEncoder::member_of(NodeId a, std::vector<int> ecus) {
  std::sort(ecus.begin(), ecus.end());
  if (ecus.empty()) return ctx_.bool_const(false);
  // Contiguous sets become two comparisons instead of |set| equalities.
  if (ecus.back() - ecus.front() + 1 == static_cast<int>(ecus.size())) {
    return ctx_.land(ctx_.ge(a, ctx_.constant(ecus.front())),
                     ctx_.le(a, ctx_.constant(ecus.back())));
  }
  std::vector<NodeId> alts;
  alts.reserve(ecus.size());
  for (const int p : ecus) alts.push_back(ctx_.eq(a, ctx_.constant(p)));
  return ctx_.or_all(alts);
}

bool AllocEncoder::build() {
  if (built_) throw std::logic_error("AllocEncoder::build called twice");
  built_ = true;
  static const obs::Metric t_build = obs::histogram("encode.time.build");
  obs::ScopedTimer build_timer(t_build);
  const auto problems = net::validate_topology(problem_.arch);
  if (!problems.empty()) {
    throw std::invalid_argument("invalid topology: " + problems.front());
  }
  for (const auto& ref : refs_) {
    const rt::Message& msg = problem_.tasks.message(ref);
    if (msg.target_task < 0 ||
        msg.target_task >= static_cast<int>(problem_.tasks.tasks.size()) ||
        msg.target_task == ref.task) {
      throw std::invalid_argument("message with invalid target task");
    }
  }
  build_tasks();
  build_slots();
  build_messages();
  build_cost();
  // Ensure every variable the decoder reads is materialized even when no
  // constraint happens to mention it (e.g. slot variables of a ring that
  // carries no messages, or allocation variables folded away by range
  // analysis).
  for (const NodeId a : a_) blaster_->touch(a);
  for (const auto& vars : slot_vars_) {
    for (const NodeId v : vars) blaster_->touch(v);
  }
  return ok_ && solver_->ok();
}

// ---------------------------------------------------------------------
// Tasks: eqs. (4)-(13).
// ---------------------------------------------------------------------

void AllocEncoder::build_tasks() {
  const auto& tasks = problem_.tasks.tasks;
  const auto n = static_cast<int>(tasks.size());
  const NodeId zero = ctx_.constant(0);
  const NodeId one = ctx_.constant(1);

  a_.resize(static_cast<std::size_t>(n), ir::kInvalidNode);
  wcet_.resize(static_cast<std::size_t>(n), ir::kInvalidNode);
  r_.resize(static_cast<std::size_t>(n), ir::kInvalidNode);

  for (int i = 0; i < n; ++i) {
    const rt::Task& t = tasks[static_cast<std::size_t>(i)];
    group("task:" + t.name);
    const std::vector<int> allowed = allowed_ecus(problem_.arch, t);
    if (allowed.empty()) {
      require(ctx_.bool_const(false));
      // Keep placeholder variables so indices stay aligned.
      a_[static_cast<std::size_t>(i)] = ctx_.constant(0);
      wcet_[static_cast<std::size_t>(i)] = ctx_.constant(0);
      r_[static_cast<std::size_t>(i)] = ctx_.constant(0);
      continue;
    }
    // Allocation variable a_i over [min allowed, max allowed], with holes
    // excluded (eq. 4, placement part).
    const NodeId a =
        mk_int_var("a_" + t.name, allowed.front(), allowed.back());
    a_[static_cast<std::size_t>(i)] = a;
    for (int p = allowed.front(); p <= allowed.back(); ++p) {
      if (!std::binary_search(allowed.begin(), allowed.end(), p)) {
        require(ctx_.ne(a, ctx_.constant(p)));
      }
    }
    // WCET selection (eq. 5).
    Ticks cmin = t.wcet[static_cast<std::size_t>(allowed.front())];
    Ticks cmax = cmin;
    for (const int p : allowed) {
      cmin = std::min(cmin, t.wcet[static_cast<std::size_t>(p)]);
      cmax = std::max(cmax, t.wcet[static_cast<std::size_t>(p)]);
    }
    NodeId wcet;
    if (cmin == cmax) {
      wcet = ctx_.constant(cmin);
    } else {
      wcet = mk_int_var("wcet_" + t.name, cmin, cmax);
      for (const int p : allowed) {
        require(ctx_.implies(
            ctx_.eq(a, ctx_.constant(p)),
            ctx_.eq(wcet,
                    ctx_.constant(t.wcet[static_cast<std::size_t>(p)]))));
      }
    }
    wcet_[static_cast<std::size_t>(i)] = wcet;
    // Response-time variable capped at the deadline minus the task's own
    // release jitter — the cap *is* eq. (13), enforced through the
    // variable's range constraint.
    const Ticks r_cap = t.deadline - t.release_jitter;
    if (cmin > r_cap) {
      require(ctx_.bool_const(false));  // cannot meet the deadline anywhere
    }
    r_[static_cast<std::size_t>(i)] =
        mk_int_var("r_" + t.name, std::min(cmin, r_cap),
                     std::max(cmin, r_cap) == r_cap ? r_cap
                                                    : std::min(cmin, r_cap));
  }

  // Separation constraints (eq. 4, redundancy part).
  for (int i = 0; i < n; ++i) {
    for (const int j : tasks[static_cast<std::size_t>(i)].separated_from) {
      if (j < 0 || j >= n || j == i) {
        throw std::invalid_argument("invalid separation set entry");
      }
      group("separate:" + tasks[static_cast<std::size_t>(i)].name + ":" +
            tasks[static_cast<std::size_t>(j)].name);
      require(ctx_.ne(a_[static_cast<std::size_t>(i)],
                      a_[static_cast<std::size_t>(j)]));
    }
  }

  // Memory budgets: sum of ite(a_i = p, mem_i, 0) <= cap_p.
  if (!problem_.arch.ecu_memory.empty()) {
    for (int p = 0; p < problem_.arch.num_ecus; ++p) {
      const std::int64_t cap =
          problem_.arch.ecu_memory[static_cast<std::size_t>(p)];
      if (cap <= 0) continue;
      std::vector<NodeId> uses;
      for (int i = 0; i < n; ++i) {
        const rt::Task& t = tasks[static_cast<std::size_t>(i)];
        if (t.memory <= 0 || !t.allowed_on(p) ||
            !problem_.arch.can_host_tasks(p)) {
          continue;
        }
        uses.push_back(ctx_.ite(
            ctx_.eq(a_[static_cast<std::size_t>(i)], ctx_.constant(p)),
            ctx_.constant(t.memory), zero));
      }
      if (!uses.empty()) {
        group("memory:ecu" + std::to_string(p));
        require(ctx_.le(ctx_.sum(uses), ctx_.constant(cap)));
      }
    }
  }

  // Redundant per-ECU utilization bound: for every ECU p,
  //   sum_i [a_i = p] * ceil(1000 * c_i(p) / t_i) <= 1000.
  // Implied by all response times meeting constrained deadlines, but as a
  // native PB constraint it prunes overloaded partial assignments long
  // before any response-time circuit propagates. Skipped in session mode:
  // native PB constraints bypass the activation-literal discipline and
  // could not be retracted after an edit.
  if (config_.redundant_utilization && backend_ == nullptr) {
    for (int p = 0; p < problem_.arch.num_ecus; ++p) {
      std::vector<pb::Term> terms;
      for (int i = 0; i < n; ++i) {
        const rt::Task& t = tasks[static_cast<std::size_t>(i)];
        if (!t.allowed_on(p) || !problem_.arch.can_host_tasks(p)) continue;
        if (ctx_.node(a_[static_cast<std::size_t>(i)]).op == ir::Op::kConst) {
          continue;  // placeholder
        }
        const std::int64_t u = ceil_div(
            1000 * t.wcet[static_cast<std::size_t>(p)], t.period);
        const NodeId ind =
            ctx_.eq(a_[static_cast<std::size_t>(i)], ctx_.constant(p));
        if (ctx_.node(ind).op == ir::Op::kBoolConst) continue;
        terms.push_back({u, blaster_->formula_lit(ind)});
      }
      if (terms.size() > 1) {
        ok_ = pb_->add_le(terms, 1000) && ok_;
      }
    }
  }

  // Priorities (eqs. 9-10): deadline-monotonic constants for distinct
  // deadlines; free-but-antisymmetric tie bools otherwise, with
  // transitivity enforced per equal-deadline group so the decoded
  // relation is always a total order.
  higher_.assign(static_cast<std::size_t>(n),
                 std::vector<NodeId>(static_cast<std::size_t>(n),
                                     ir::kInvalidNode));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Ticks di = tasks[static_cast<std::size_t>(i)].deadline;
      const Ticks dj = tasks[static_cast<std::size_t>(j)].deadline;
      NodeId i_over_j;
      if (di < dj) {
        i_over_j = ctx_.bool_const(true);
      } else if (di > dj) {
        i_over_j = ctx_.bool_const(false);
      } else if (config_.free_tie_priorities) {
        // Named by task, not index: stable across instance edits so a
        // session's rebuild reuses the variable.
        i_over_j = mk_bool_var(
            "p_" + tasks[static_cast<std::size_t>(i)].name + "_" +
            tasks[static_cast<std::size_t>(j)].name);
      } else {
        i_over_j = ctx_.bool_const(true);  // index tie-break
      }
      higher_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          i_over_j;
      higher_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          ctx_.lnot(i_over_j);  // eq. (9): p_i^j + p_j^i = 1
    }
  }
  if (config_.free_tie_priorities) {
    group("priorities");
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        for (int k = j + 1; k < n; ++k) {
          const Ticks di = tasks[static_cast<std::size_t>(i)].deadline;
          if (di != tasks[static_cast<std::size_t>(j)].deadline ||
              di != tasks[static_cast<std::size_t>(k)].deadline) {
            continue;
          }
          const NodeId ij =
              higher_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          const NodeId jk =
              higher_[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
          const NodeId ik =
              higher_[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
          require(ctx_.implies(ctx_.land(ij, jk), ik));
          require(ctx_.implies(ctx_.land(ctx_.lnot(ij), ctx_.lnot(jk)),
                               ctx_.lnot(ik)));
        }
      }
    }
  }

  // Preemption counts and costs (eqs. 6-8, 11-12).
  for (int i = 0; i < n; ++i) {
    const rt::Task& ti = tasks[static_cast<std::size_t>(i)];
    if (ctx_.node(r_[static_cast<std::size_t>(i)]).op == ir::Op::kConst) {
      continue;  // placeholder from an infeasible task
    }
    group("task:" + ti.name);
    std::vector<NodeId> terms;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const NodeId j_over_i =
          higher_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
      if (j_over_i == ctx_.bool_const(false)) continue;  // j never preempts i
      const rt::Task& tj = tasks[static_cast<std::size_t>(j)];
      const NodeId cond = ctx_.land(
          j_over_i, ctx_.eq(a_[static_cast<std::size_t>(i)],
                            a_[static_cast<std::size_t>(j)]));
      if (cond == ctx_.bool_const(false)) continue;  // can never share an ECU
      const Ticks imax =
          ceil_div(ti.deadline + tj.release_jitter, tj.period);
      const NodeId I = mk_int_var(
          "I_" + ti.name + "_" + tj.name, 0, imax);
      // eq. (11): ceiling bounds over the jittered arrival window,
      // guarded by shared ECU + priority.
      const NodeId r_i = r_[static_cast<std::size_t>(i)];
      const NodeId window =
          ctx_.add(r_i, ctx_.constant(tj.release_jitter));
      require(ctx_.implies(
          cond, ctx_.ge(ctx_.mul(I, ctx_.constant(tj.period)), window)));
      require(ctx_.implies(
          cond, ctx_.lt(ctx_.mul(ctx_.sub(I, one),
                                 ctx_.constant(tj.period)),
                        window)));
      // eq. (12) extended with the priority guard.
      require(ctx_.implies(ctx_.lnot(cond), ctx_.eq(I, zero)));
      // eqs. (7)-(8): pc = I * wcet_j under the guard, else 0. This is the
      // paper's formulation — the product of two variables handled by the
      // non-linear encoding.
      const NodeId pc = mk_int_var(
          "pc_" + ti.name + "_" + tj.name, 0,
          ctx_.range(ctx_.mul(I, wcet_[static_cast<std::size_t>(j)])).hi);
      require(ctx_.implies(
          cond,
          ctx_.eq(pc, ctx_.mul(I, wcet_[static_cast<std::size_t>(j)]))));
      require(ctx_.implies(ctx_.lnot(cond), ctx_.eq(pc, zero)));
      terms.push_back(pc);
    }
    // eq. (6): r_i = wcet_i + sum of preemption costs.
    require(ctx_.eq(r_[static_cast<std::size_t>(i)],
                    ctx_.add(wcet_[static_cast<std::size_t>(i)],
                             ctx_.sum(terms))));
  }
}

// ---------------------------------------------------------------------
// TDMA slot tables.
// ---------------------------------------------------------------------

void AllocEncoder::build_slots() {
  const auto num_media = static_cast<int>(problem_.arch.media.size());
  slot_vars_.resize(static_cast<std::size_t>(num_media));
  lambda_.resize(static_cast<std::size_t>(num_media), ir::kInvalidNode);
  for (int k = 0; k < num_media; ++k) {
    const rt::Medium& medium = problem_.arch.media[static_cast<std::size_t>(k)];
    if (medium.type != rt::MediumType::kTokenRing) continue;
    auto& vars = slot_vars_[static_cast<std::size_t>(k)];
    for (std::size_t j = 0; j < medium.ecus.size(); ++j) {
      vars.push_back(mk_int_var(
          "slot_" + medium.name + "_" + std::to_string(medium.ecus[j]),
          medium.slot_min, medium.slot_max));
    }
    lambda_[static_cast<std::size_t>(k)] = ctx_.sum(vars);
  }
}

// ---------------------------------------------------------------------
// Messages: route selection (eq. 14), deadline budgets, jitter chains,
// and per-medium response times (eqs. 2-3 with the Section 3 encoding).
// ---------------------------------------------------------------------

void AllocEncoder::build_messages() {
  const auto num_media = static_cast<int>(problem_.arch.media.size());
  const auto num_msgs = static_cast<int>(refs_.size());
  const NodeId zero = ctx_.constant(0);
  const std::vector<int> msg_rank = rt::message_dm_ranks(problem_.tasks);
  const auto& routes = closures_->routes();

  msg_.resize(static_cast<std::size_t>(num_msgs));

  // Stable message identifier: sender name + per-sender index. Variable
  // and group names derived from it survive instance edits that add or
  // remove *other* tasks and messages (a global message id would not).
  auto msg_name = [&](const rt::TaskSet::MsgRef& r) {
    return problem_.tasks.tasks[static_cast<std::size_t>(r.task)].name + "." +
           std::to_string(r.index);
  };

  // S(h)/D(h): valid sender/receiver ECU sets per route.
  auto sender_set = [&](const net::Path& h) {
    std::vector<int> out;
    const rt::Medium& first =
        problem_.arch.media[static_cast<std::size_t>(h.front())];
    for (const int e : first.ecus) {
      if (h.size() >= 2 &&
          problem_.arch.media[static_cast<std::size_t>(h[1])].connects(e)) {
        continue;
      }
      out.push_back(e);
    }
    return out;
  };
  auto receiver_set = [&](const net::Path& h) {
    std::vector<int> out;
    const rt::Medium& last =
        problem_.arch.media[static_cast<std::size_t>(h.back())];
    for (const int e : last.ecus) {
      if (h.size() >= 2 && problem_.arch
                               .media[static_cast<std::size_t>(
                                   h[h.size() - 2])]
                               .connects(e)) {
        continue;
      }
      out.push_back(e);
    }
    return out;
  };

  for (int g = 0; g < num_msgs; ++g) {
    const auto& ref = refs_[static_cast<std::size_t>(g)];
    const rt::Message& message = problem_.tasks.message(ref);
    const rt::Task& sender = problem_.tasks.tasks[static_cast<std::size_t>(
        ref.task)];
    const rt::Task& receiver = problem_.tasks.tasks[static_cast<std::size_t>(
        message.target_task)];
    const std::vector<int> src_allowed = allowed_ecus(problem_.arch, sender);
    const std::vector<int> dst_allowed =
        allowed_ecus(problem_.arch, receiver);
    const NodeId a_src = a_[static_cast<std::size_t>(ref.task)];
    const NodeId a_dst = a_[static_cast<std::size_t>(message.target_task)];
    MsgVars& mv = msg_[static_cast<std::size_t>(g)];
    const std::string mname = "m_" + msg_name(ref);
    group("message:" + msg_name(ref));

    auto intersects = [](const std::vector<int>& a,
                         const std::vector<int>& b) {
      for (const int x : a) {
        if (std::find(b.begin(), b.end(), x) != b.end()) return true;
      }
      return false;
    };

    // Candidate routes: those some (src, dst) allocation could realise.
    for (int h = 0; h < static_cast<int>(routes.size()); ++h) {
      const net::Path& path = routes[static_cast<std::size_t>(h)];
      if (path.empty()) {
        if (intersects(src_allowed, dst_allowed)) mv.routes.push_back(h);
        continue;
      }
      if (intersects(sender_set(path), src_allowed) &&
          intersects(receiver_set(path), dst_allowed)) {
        mv.routes.push_back(h);
      }
    }
    if (mv.routes.empty()) {
      require(ctx_.bool_const(false));  // message cannot be delivered
      continue;
    }

    // Route selectors Pf_m: exactly one candidate (eq. 14's disjunction
    // over sub-paths, with the closure structure flattened into the
    // candidate set).
    for (const int h : mv.routes) {
      mv.rsel.push_back(
          mk_bool_var("Pf_" + mname + "_h" + std::to_string(h)));
    }
    require(ctx_.or_all(mv.rsel));
    for (std::size_t x = 0; x < mv.rsel.size(); ++x) {
      for (std::size_t y = x + 1; y < mv.rsel.size(); ++y) {
        require(ctx_.lor(ctx_.lnot(mv.rsel[x]), ctx_.lnot(mv.rsel[y])));
      }
    }

    // Endpoint validity v(h) per candidate.
    for (std::size_t c = 0; c < mv.routes.size(); ++c) {
      const net::Path& path =
          routes[static_cast<std::size_t>(mv.routes[c])];
      const NodeId sel = mv.rsel[c];
      if (path.empty()) {
        require(ctx_.implies(sel, ctx_.eq(a_src, a_dst)));
        continue;
      }
      require(ctx_.implies(sel, ctx_.ne(a_src, a_dst)));
      require(ctx_.implies(sel, member_of(a_src, sender_set(path))));
      require(ctx_.implies(sel, member_of(a_dst, receiver_set(path))));
    }

    // K_m^k: medium usage indicators.
    mv.used.assign(static_cast<std::size_t>(num_media), ir::kInvalidNode);
    for (int k = 0; k < num_media; ++k) {
      std::vector<NodeId> using_k;
      for (std::size_t c = 0; c < mv.routes.size(); ++c) {
        const net::Path& path =
            routes[static_cast<std::size_t>(mv.routes[c])];
        if (std::find(path.begin(), path.end(), k) != path.end()) {
          using_k.push_back(mv.rsel[c]);
        }
      }
      if (!using_k.empty()) {
        mv.used[static_cast<std::size_t>(k)] = ctx_.or_all(using_k);
      }
    }

    // Per-medium budget, jitter, station, slot and response variables.
    mv.local_dl.assign(static_cast<std::size_t>(num_media), ir::kInvalidNode);
    mv.jitter.assign(static_cast<std::size_t>(num_media), ir::kInvalidNode);
    mv.station.assign(static_cast<std::size_t>(num_media), ir::kInvalidNode);
    mv.slot_len.assign(static_cast<std::size_t>(num_media), ir::kInvalidNode);
    mv.response.assign(static_cast<std::size_t>(num_media), ir::kInvalidNode);
    std::vector<NodeId> budget_terms;
    for (int k = 0; k < num_media; ++k) {
      if (mv.used[static_cast<std::size_t>(k)] == ir::kInvalidNode) continue;
      const NodeId used = mv.used[static_cast<std::size_t>(k)];
      const rt::Medium& medium =
          problem_.arch.media[static_cast<std::size_t>(k)];
      const NodeId dl = mk_int_var("d_" + mname + "_" + medium.name, 0,
                                     message.deadline);
      mv.local_dl[static_cast<std::size_t>(k)] = dl;
      require(ctx_.implies(ctx_.lnot(used), ctx_.eq(dl, zero)));
      budget_terms.push_back(dl);

      const NodeId jit = mk_int_var(
          "J_" + mname + "_" + medium.name, 0,
          message.release_jitter + message.deadline);
      mv.jitter[static_cast<std::size_t>(k)] = jit;
      require(ctx_.implies(ctx_.lnot(used), ctx_.eq(jit, zero)));

      if (medium.type == rt::MediumType::kTokenRing) {
        int lo = medium.ecus.front(), hi = medium.ecus.front();
        for (const int e : medium.ecus) {
          lo = std::min(lo, e);
          hi = std::max(hi, e);
        }
        mv.station[static_cast<std::size_t>(k)] = mk_int_var(
            "stn_" + mname + "_" + medium.name, lo, hi);
        mv.slot_len[static_cast<std::size_t>(k)] = mk_int_var(
            "osl_" + mname + "_" + medium.name, medium.slot_min,
            medium.slot_max);
      }
      mv.response[static_cast<std::size_t>(k)] = mk_int_var(
          "rm_" + mname + "_" + medium.name, 0, message.deadline);
      require(ctx_.implies(
          ctx_.lnot(used),
          ctx_.eq(mv.response[static_cast<std::size_t>(k)], zero)));
    }

    // Gateway service cost and budget sum: per candidate route.
    Ticks serv_min = 0, serv_max = 0;
    std::vector<Ticks> serv_of(mv.routes.size(), 0);
    for (std::size_t c = 0; c < mv.routes.size(); ++c) {
      const net::Path& path = routes[static_cast<std::size_t>(mv.routes[c])];
      Ticks serv = 0;
      for (std::size_t l = 0; l + 1 < path.size(); ++l) {
        serv += problem_.arch.media[static_cast<std::size_t>(path[l])]
                    .gateway_cost;
      }
      serv_of[c] = serv;
      if (c == 0) {
        serv_min = serv_max = serv;
      } else {
        serv_min = std::min(serv_min, serv);
        serv_max = std::max(serv_max, serv);
      }
    }
    NodeId serv_node;
    if (serv_min == serv_max) {
      serv_node = ctx_.constant(serv_min);
    } else {
      serv_node = mk_int_var("serv_" + mname, serv_min, serv_max);
      for (std::size_t c = 0; c < mv.routes.size(); ++c) {
        require(ctx_.implies(mv.rsel[c],
                             ctx_.eq(serv_node, ctx_.constant(serv_of[c]))));
      }
    }
    require(ctx_.le(ctx_.add(ctx_.sum(budget_terms), serv_node),
                    ctx_.constant(message.deadline)));

    // Jitter chains and station pinning, per candidate route.
    for (std::size_t c = 0; c < mv.routes.size(); ++c) {
      const net::Path& path = routes[static_cast<std::size_t>(mv.routes[c])];
      const NodeId sel = mv.rsel[c];
      NodeId acc = ctx_.constant(message.release_jitter);
      for (std::size_t l = 0; l < path.size(); ++l) {
        const int k = path[l];
        const rt::Medium& medium =
            problem_.arch.media[static_cast<std::size_t>(k)];
        require(ctx_.implies(
            sel, ctx_.eq(mv.jitter[static_cast<std::size_t>(k)], acc)));
        if (medium.type == rt::MediumType::kTokenRing) {
          const NodeId stn = mv.station[static_cast<std::size_t>(k)];
          if (l == 0) {
            require(ctx_.implies(sel, ctx_.eq(stn, a_src)));
          } else {
            const int gw = problem_.arch.gateway_between(
                path[l - 1], path[l]);
            require(ctx_.implies(sel, ctx_.eq(stn, ctx_.constant(gw))));
          }
        }
        const Ticks beta =
            rt::transmission_ticks(medium, message.size_bytes);
        acc = ctx_.add(
            acc, ctx_.sub(mv.local_dl[static_cast<std::size_t>(k)],
                          ctx_.constant(beta)));
      }
    }

    // TDMA slot selection: (K ∧ stn = ecus[j]) -> osl = lambda_k[j], and
    // the slot must fit the message.
    for (int k = 0; k < num_media; ++k) {
      if (mv.used[static_cast<std::size_t>(k)] == ir::kInvalidNode) continue;
      const rt::Medium& medium =
          problem_.arch.media[static_cast<std::size_t>(k)];
      if (medium.type != rt::MediumType::kTokenRing) continue;
      const NodeId used = mv.used[static_cast<std::size_t>(k)];
      const NodeId stn = mv.station[static_cast<std::size_t>(k)];
      const NodeId osl = mv.slot_len[static_cast<std::size_t>(k)];
      for (std::size_t j = 0; j < medium.ecus.size(); ++j) {
        require(ctx_.implies(
            ctx_.land(used, ctx_.eq(stn, ctx_.constant(medium.ecus[j]))),
            ctx_.eq(osl,
                    slot_vars_[static_cast<std::size_t>(k)][j])));
      }
      const Ticks rho = rt::transmission_ticks(medium, message.size_bytes);
      require(ctx_.implies(used, ctx_.ge(osl, ctx_.constant(rho))));
    }
  }

  // Per-medium response times with interference and TDMA blocking.
  for (int g = 0; g < num_msgs; ++g) {
    MsgVars& mv = msg_[static_cast<std::size_t>(g)];
    if (mv.routes.empty()) continue;
    const auto& ref = refs_[static_cast<std::size_t>(g)];
    const rt::Message& message = problem_.tasks.message(ref);
    const std::string mname = "m_" + msg_name(ref);
    group("message:" + msg_name(ref));

    for (int k = 0; k < num_media; ++k) {
      if (mv.used[static_cast<std::size_t>(k)] == ir::kInvalidNode) continue;
      const NodeId used = mv.used[static_cast<std::size_t>(k)];
      const rt::Medium& medium =
          problem_.arch.media[static_cast<std::size_t>(k)];
      const NodeId rm = mv.response[static_cast<std::size_t>(k)];
      const Ticks rho = rt::transmission_ticks(medium, message.size_bytes);
      const bool tdma = medium.type == rt::MediumType::kTokenRing;

      std::vector<NodeId> terms;
      for (int h = 0; h < num_msgs; ++h) {
        if (h == g) continue;
        if (msg_rank[static_cast<std::size_t>(h)] >=
            msg_rank[static_cast<std::size_t>(g)]) {
          continue;  // only higher-priority messages interfere
        }
        const MsgVars& other = msg_[static_cast<std::size_t>(h)];
        if (other.routes.empty() ||
            other.used[static_cast<std::size_t>(k)] == ir::kInvalidNode) {
          continue;
        }
        const auto& href = refs_[static_cast<std::size_t>(h)];
        const rt::Message& hmsg = problem_.tasks.message(href);
        const Ticks ht =
            problem_.tasks.tasks[static_cast<std::size_t>(href.task)].period;
        const Ticks hrho = rt::transmission_ticks(medium, hmsg.size_bytes);
        NodeId guard =
            ctx_.land(used, other.used[static_cast<std::size_t>(k)]);
        if (tdma) {
          guard = ctx_.land(
              guard, ctx_.eq(mv.station[static_cast<std::size_t>(k)],
                             other.station[static_cast<std::size_t>(k)]));
        }
        const Ticks imax = ceil_div(
            message.deadline + hmsg.release_jitter + hmsg.deadline, ht);
        const NodeId imsg = mk_int_var(
            "Im_" + mname + "_" + msg_name(href) + "_" + medium.name, 0,
            imax);
        const NodeId arrivals =
            ctx_.add(rm, other.jitter[static_cast<std::size_t>(k)]);
        require(ctx_.implies(
            guard,
            ctx_.ge(ctx_.mul(imsg, ctx_.constant(ht)), arrivals)));
        require(ctx_.implies(
            guard, ctx_.lt(ctx_.mul(ctx_.sub(imsg, ctx_.constant(1)),
                                    ctx_.constant(ht)),
                           arrivals)));
        require(ctx_.implies(ctx_.lnot(guard), ctx_.eq(imsg, ctx_.constant(0))));
        terms.push_back(ctx_.mul(imsg, ctx_.constant(hrho)));
      }

      NodeId rhs = ctx_.add(ctx_.constant(rho), ctx_.sum(terms));
      if (!tdma && medium.can_blocking) {
        // Non-preemptive blocking: B = max over lower-priority messages
        // sharing the bus of their frame time (0 if none). Exact max via
        // lower bounds plus an achievability disjunction.
        std::vector<NodeId> cands;
        Ticks bmax = 0;
        for (int h = 0; h < num_msgs; ++h) {
          if (h == g || msg_rank[static_cast<std::size_t>(h)] <=
                            msg_rank[static_cast<std::size_t>(g)]) {
            continue;
          }
          const MsgVars& other = msg_[static_cast<std::size_t>(h)];
          if (other.routes.empty() ||
              other.used[static_cast<std::size_t>(k)] == ir::kInvalidNode) {
            continue;
          }
          const Ticks hrho = rt::transmission_ticks(
              medium,
              problem_.tasks.message(refs_[static_cast<std::size_t>(h)])
                  .size_bytes);
          cands.push_back(ctx_.ite(other.used[static_cast<std::size_t>(k)],
                                   ctx_.constant(hrho), zero));
          bmax = std::max(bmax, hrho);
        }
        if (!cands.empty()) {
          const NodeId block = mk_int_var(
              "B_" + mname + "_" + medium.name, 0, bmax);
          std::vector<NodeId> achieved;
          achieved.push_back(ctx_.eq(block, zero));
          for (const NodeId c : cands) {
            require(ctx_.ge(block, c));
            achieved.push_back(ctx_.eq(block, c));
          }
          require(ctx_.or_all(achieved));
          rhs = ctx_.add(rhs, block);
        }
      }
      if (tdma) {
        // eq. (3): blocking Imb * (Lambda - osl) — the genuinely
        // non-linear term (both factors are variables when TRT is being
        // minimized).
        const NodeId lambda = lambda_[static_cast<std::size_t>(k)];
        const Ticks lambda_min =
            medium.slot_min * static_cast<Ticks>(medium.ecus.size());
        const NodeId imb = mk_int_var(
            "Imb_" + mname + "_" + medium.name, 0,
            ceil_div(message.deadline, std::max<Ticks>(1, lambda_min)));
        require(ctx_.implies(used, ctx_.ge(ctx_.mul(imb, lambda), rm)));
        require(ctx_.implies(
            used, ctx_.lt(ctx_.mul(ctx_.sub(imb, ctx_.constant(1)), lambda),
                          rm)));
        require(ctx_.implies(ctx_.lnot(used), ctx_.eq(imb, ctx_.constant(0))));
        rhs = ctx_.add(
            rhs, ctx_.mul(imb, ctx_.sub(lambda, mv.slot_len[
                                                    static_cast<std::size_t>(
                                                        k)])));
      }
      require(ctx_.implies(used, ctx_.eq(rm, rhs)));
      // Per-leg deadline: r_m^k <= d_m^k.
      require(ctx_.implies(
          used, ctx_.le(rm, mv.local_dl[static_cast<std::size_t>(k)])));
    }
  }
}

// ---------------------------------------------------------------------
// Objective.
// ---------------------------------------------------------------------

void AllocEncoder::build_cost() {
  group("objective");
  const NodeId zero = ctx_.constant(0);
  switch (objective_.kind) {
    case ObjectiveKind::kFeasibility:
      cost_ = zero;
      break;
    case ObjectiveKind::kTokenRingTrt: {
      if (objective_.medium < 0 ||
          objective_.medium >= static_cast<int>(problem_.arch.media.size()) ||
          problem_.arch.media[static_cast<std::size_t>(objective_.medium)]
                  .type != rt::MediumType::kTokenRing) {
        throw std::invalid_argument("kTokenRingTrt: not a token-ring medium");
      }
      cost_ = lambda_[static_cast<std::size_t>(objective_.medium)];
      break;
    }
    case ObjectiveKind::kSumTrt: {
      std::vector<NodeId> lambdas;
      for (const NodeId l : lambda_) {
        if (l != ir::kInvalidNode) lambdas.push_back(l);
      }
      cost_ = ctx_.sum(lambdas);
      break;
    }
    case ObjectiveKind::kCanLoad: {
      if (objective_.medium < 0 ||
          objective_.medium >= static_cast<int>(problem_.arch.media.size()) ||
          problem_.arch.media[static_cast<std::size_t>(objective_.medium)]
                  .type != rt::MediumType::kCan) {
        throw std::invalid_argument("kCanLoad: not a CAN medium");
      }
      const int k = objective_.medium;
      const rt::Medium& medium =
          problem_.arch.media[static_cast<std::size_t>(k)];
      std::vector<NodeId> terms;
      for (std::size_t g = 0; g < msg_.size(); ++g) {
        const MsgVars& mv = msg_[g];
        if (mv.routes.empty() ||
            mv.used[static_cast<std::size_t>(k)] == ir::kInvalidNode) {
          continue;
        }
        const auto& ref = refs_[g];
        const rt::Message& message = problem_.tasks.message(ref);
        const Ticks period =
            problem_.tasks.tasks[static_cast<std::size_t>(ref.task)].period;
        const Ticks rho = rt::transmission_ticks(medium, message.size_bytes);
        // Scaled per-message load: ceil(rho * 1000 / period) — an integer
        // upper bound on the message's contribution in 1/1000 units.
        const std::int64_t u = ceil_div(rho * 1000, period);
        terms.push_back(ctx_.ite(mv.used[static_cast<std::size_t>(k)],
                                 ctx_.constant(u), zero));
      }
      cost_ = ctx_.sum(terms);
      break;
    }
    case ObjectiveKind::kMaxUtilization: {
      // cost >= util_p for every ECU; minimization pins cost to the max.
      // util_p = sum_i [a_i = p] * ceil(1000 * c_i(p) / t_i).
      const NodeId cost_var = mk_int_var("max_util", 0, 1000);
      for (int p = 0; p < problem_.arch.num_ecus; ++p) {
        std::vector<NodeId> terms;
        for (std::size_t i = 0; i < problem_.tasks.tasks.size(); ++i) {
          const rt::Task& t = problem_.tasks.tasks[i];
          if (!t.allowed_on(p) || !problem_.arch.can_host_tasks(p)) continue;
          if (ctx_.node(a_[i]).op == ir::Op::kConst) continue;
          const std::int64_t u = ceil_div(
              1000 * t.wcet[static_cast<std::size_t>(p)], t.period);
          terms.push_back(ctx_.ite(ctx_.eq(a_[i], ctx_.constant(p)),
                                   ctx_.constant(u), zero));
        }
        if (!terms.empty()) {
          require(ctx_.ge(cost_var, ctx_.sum(terms)));
        }
      }
      cost_ = cost_var;
      break;
    }
  }
  cost_range_ = ctx_.range(cost_);
  blaster_->touch(cost_);
}

// ---------------------------------------------------------------------
// Solving and decoding.
// ---------------------------------------------------------------------

sat::LBool AllocEncoder::solve(std::optional<std::int64_t> cost_lo,
                               std::optional<std::int64_t> cost_hi,
                               sat::Budget budget,
                               std::span<const sat::Lit> guards) {
  if (!ok_ || !solver_->ok()) return sat::LBool::kFalse;
  std::vector<sat::Lit> assumptions(guards.begin(), guards.end());
  if (cost_lo || cost_hi) {
    const std::int64_t lo = cost_lo.value_or(cost_range_.lo);
    const std::int64_t hi = cost_hi.value_or(cost_range_.hi);
    const auto key = std::make_pair(lo, hi);
    auto it = bound_guards_.find(key);
    if (it == bound_guards_.end()) {
      const NodeId bound = ctx_.land(
          ctx_.ge(cost_, ctx_.constant(lo)),
          ctx_.le(cost_, ctx_.constant(hi)));
      it = bound_guards_.emplace(key, blaster_->formula_lit(bound)).first;
    }
    assumptions.push_back(it->second);
  }
  return solver_->solve(assumptions, budget);
}

bool AllocEncoder::assert_cost_bounds(std::int64_t lo, std::int64_t hi) {
  ok_ = blaster_->assert_true(ctx_.ge(cost_, ctx_.constant(lo))) && ok_;
  ok_ = blaster_->assert_true(ctx_.le(cost_, ctx_.constant(hi))) && ok_;
  return ok_;
}

std::int64_t AllocEncoder::decode_cost() const {
  return blaster_->int_value(cost_);
}

void AllocEncoder::hint(const rt::Allocation& allocation) {
  if (allocation.task_ecu.size() != a_.size()) return;
  for (std::size_t i = 0; i < a_.size(); ++i) {
    if (ctx_.node(a_[i]).op == ir::Op::kIntVar) {
      blaster_->hint_int(a_[i], allocation.task_ecu[i]);
    }
  }
  for (std::size_t k = 0;
       k < slot_vars_.size() && k < allocation.slots.size(); ++k) {
    for (std::size_t j = 0;
         j < slot_vars_[k].size() && j < allocation.slots[k].size(); ++j) {
      blaster_->hint_int(slot_vars_[k][j], allocation.slots[k][j]);
    }
  }
  // Route selectors: prefer the candidate matching the hinted route; and
  // seed the per-medium deadline budgets along it.
  const auto& routes = closures_->routes();
  for (std::size_t g = 0;
       g < msg_.size() && g < allocation.msg_route.size(); ++g) {
    const MsgVars& mv = msg_[g];
    for (std::size_t c = 0; c < mv.routes.size(); ++c) {
      const bool match =
          routes[static_cast<std::size_t>(mv.routes[c])] ==
          allocation.msg_route[g];
      blaster_->hint_bool(mv.rsel[c], match);
    }
    if (g >= allocation.msg_local_deadline.size()) continue;
    const auto& route = allocation.msg_route[g];
    const auto& budgets = allocation.msg_local_deadline[g];
    if (budgets.size() != route.size()) continue;
    for (std::size_t l = 0; l < route.size(); ++l) {
      const auto k = static_cast<std::size_t>(route[l]);
      if (k < mv.local_dl.size() && mv.local_dl[k] != ir::kInvalidNode &&
          ctx_.node(mv.local_dl[k]).op == ir::Op::kIntVar) {
        blaster_->hint_int(mv.local_dl[k], budgets[l]);
      }
    }
  }
}

rt::Allocation AllocEncoder::decode() const {
  const auto n = static_cast<int>(problem_.tasks.tasks.size());
  const auto num_msgs = static_cast<int>(refs_.size());
  rt::Allocation alloc;
  alloc.task_ecu.resize(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    alloc.task_ecu[static_cast<std::size_t>(i)] = static_cast<int>(
        blaster_->int_value(a_[static_cast<std::size_t>(i)]));
  }

  // Priorities: rank by number of strictly-higher tasks. Transitivity of
  // the tie bools guarantees this is a valid total order.
  auto decoded_higher = [&](int i, int j) -> bool {
    const NodeId node =
        higher_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    const ir::Node& inode = ctx_.node(node);
    if (inode.op == ir::Op::kBoolConst) return inode.value != 0;
    try {
      return blaster_->bool_value(node);
    } catch (const std::logic_error&) {
      return i < j;  // tie var never encoded: any consistent order works
    }
  };
  alloc.task_prio.resize(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    int rank = 0;
    for (int j = 0; j < n; ++j) {
      if (j != i && decoded_higher(j, i)) ++rank;
    }
    alloc.task_prio[static_cast<std::size_t>(i)] = rank;
  }

  // Routes and budgets.
  const auto& routes = closures_->routes();
  alloc.msg_route.resize(static_cast<std::size_t>(num_msgs));
  alloc.msg_local_deadline.resize(static_cast<std::size_t>(num_msgs));
  for (int g = 0; g < num_msgs; ++g) {
    const MsgVars& mv = msg_[static_cast<std::size_t>(g)];
    int chosen = -1;
    for (std::size_t c = 0; c < mv.rsel.size(); ++c) {
      if (blaster_->bool_value(mv.rsel[c])) {
        chosen = mv.routes[c];
        break;
      }
    }
    if (chosen < 0) continue;  // unsat instance; nothing to decode
    const net::Path& path = routes[static_cast<std::size_t>(chosen)];
    alloc.msg_route[static_cast<std::size_t>(g)] = path;
    for (const int k : path) {
      alloc.msg_local_deadline[static_cast<std::size_t>(g)].push_back(
          blaster_->int_value(mv.local_dl[static_cast<std::size_t>(k)]));
    }
  }

  // Slot tables.
  alloc.slots.resize(problem_.arch.media.size());
  for (std::size_t k = 0; k < problem_.arch.media.size(); ++k) {
    for (const NodeId v : slot_vars_[k]) {
      alloc.slots[k].push_back(blaster_->int_value(v));
    }
  }
  return alloc;
}

}  // namespace optalloc::alloc
