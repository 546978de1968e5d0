// Tests for the allocation service: canonical instance fingerprinting
// (permutation invariance + allocation restoration), the sharded LRU
// result cache, the scheduler's solve/cache/deadline/cancel semantics,
// the NDJSON protocol, and the server's request handling end to end
// (driven through handle_line, no sockets).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/cost.hpp"
#include "alloc/io.hpp"
#include "alloc/optimizer.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rt/verify.hpp"
#include "inc/patch.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/scheduler.hpp"
#include "svc/server.hpp"
#include "workload/tindell.hpp"

namespace optalloc::svc {
namespace {

// A small 2-ECU ring system that optimizes in milliseconds...
constexpr const char* kSystem = R"(system 2
memory 0 100
medium ring0 token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
task sensor period=100 deadline=40 memory=10 wcet=8,10
task control period=100 deadline=80 wcet=25,30
task actuator period=100 deadline=100 jitter=2 wcet=5,-
message sensor -> control bytes=4 deadline=50
message control -> actuator bytes=2 deadline=60 jitter=1
separate control actuator
)";

// ...and the same system with every reorderable declaration reordered:
// tasks reversed, the ring's ECU list flipped, messages swapped, the
// memory line moved. Canonicalization must see through all of it.
constexpr const char* kSystemPermuted = R"(system 2
task actuator period=100 deadline=100 jitter=2 wcet=5,-
task control period=100 deadline=80 wcet=25,30
task sensor period=100 deadline=40 memory=10 wcet=8,10
medium ring0 token_ring ecus=1,0 slot_min=1 slot_max=16 byte_ticks=1
message control -> actuator bytes=2 deadline=60 jitter=1
message sensor -> control bytes=4 deadline=50
separate control actuator
memory 0 100
)";

alloc::Problem parse(const std::string& text) {
  std::istringstream in(text);
  return alloc::parse_problem(in);
}

// --- Fingerprinting ----------------------------------------------------

TEST(Fingerprint, PermutationInvariant) {
  const Canonical a = canonicalize(parse(kSystem), alloc::Objective::sum_trt());
  const Canonical b =
      canonicalize(parse(kSystemPermuted), alloc::Objective::sum_trt());
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.key, b.key);
  EXPECT_FALSE(a.key.hex().empty());
}

TEST(Fingerprint, MediumIndexObjectiveIsRemapped) {
  // Same two-ring system declared with the media swapped: a medium-indexed
  // objective must land on the same canonical key when it names the same
  // physical ring.
  const char* kTwoRings = R"(system 3
medium ringA token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
medium ringB token_ring ecus=1,2 slot_min=1 slot_max=8 byte_ticks=1
task a period=100 deadline=90 wcet=5,6,7
task b period=100 deadline=80 wcet=8,9,10
message a -> b bytes=4 deadline=40
)";
  const char* kTwoRingsSwapped = R"(system 3
medium ringB token_ring ecus=2,1 slot_min=1 slot_max=8 byte_ticks=1
medium ringA token_ring ecus=0,1 slot_min=1 slot_max=16 byte_ticks=1
task a period=100 deadline=90 wcet=5,6,7
task b period=100 deadline=80 wcet=8,9,10
message a -> b bytes=4 deadline=40
)";
  const Canonical ring_b_first =
      canonicalize(parse(kTwoRings), alloc::Objective::ring_trt(1));
  const Canonical ring_b_second =
      canonicalize(parse(kTwoRingsSwapped), alloc::Objective::ring_trt(0));
  EXPECT_EQ(ring_b_first.key, ring_b_second.key);
  // ...but a different ring is a different instance.
  const Canonical ring_a =
      canonicalize(parse(kTwoRings), alloc::Objective::ring_trt(0));
  EXPECT_NE(ring_b_first.key, ring_a.key);
}

TEST(Fingerprint, DistinguishesInstancesAndObjectives) {
  const alloc::Problem p = parse(kSystem);
  const Canonical base = canonicalize(p, alloc::Objective::sum_trt());
  EXPECT_NE(base.key,
            canonicalize(p, alloc::Objective::feasibility()).key);

  alloc::Problem tweaked = p;
  tweaked.tasks.tasks[0].deadline += 1;
  EXPECT_NE(base.key, canonicalize(tweaked, alloc::Objective::sum_trt()).key);
}

TEST(Fingerprint, RestoreAllocationRoundTrips) {
  // Solve the *canonical* form of the permuted instance, translate the
  // allocation back, and check it against the permuted instance itself.
  const alloc::Problem original = parse(kSystemPermuted);
  const alloc::Objective objective = alloc::Objective::sum_trt();
  const Canonical canon = canonicalize(original, objective);

  const alloc::OptimizeResult res =
      alloc::optimize(canon.problem, canon.objective);
  ASSERT_EQ(res.status, alloc::OptimizeResult::Status::kOptimal);
  ASSERT_TRUE(res.has_allocation);

  const rt::Allocation restored = restore_allocation(canon, res.allocation);
  EXPECT_TRUE(rt::verify(original.tasks, original.arch, restored).feasible);
  const auto cost = alloc::evaluate_allocation(original, objective, restored);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, res.cost);
}

// --- Result cache ------------------------------------------------------

TEST(Fingerprint, CanonicalAllocationInvertsRestore) {
  // The permuted declaration gives nontrivial task/media/slot perms.
  const alloc::Problem permuted = parse(kSystemPermuted);
  const Canonical canon = canonicalize(permuted, alloc::Objective::sum_trt());

  rt::Allocation original;
  original.task_ecu = {1, 0, 0};        // actuator, control, sensor
  original.task_prio = {2, 1, 0};
  original.msg_route = {{0}, {}};       // msg 0 crosses ring0, msg 1 local
  original.msg_local_deadline = {{60}, {}};
  original.slots = {{4, 7}};            // ring0 declared ecus=1,0

  const rt::Allocation canonical = canonical_allocation(canon, original);
  const rt::Allocation back = restore_allocation(canon, canonical);
  EXPECT_EQ(back.task_ecu, original.task_ecu);
  EXPECT_EQ(back.task_prio, original.task_prio);
  EXPECT_EQ(back.msg_route, original.msg_route);
  EXPECT_EQ(back.msg_local_deadline, original.msg_local_deadline);
  EXPECT_EQ(back.slots, original.slots);
}

TEST(ResultCache, HitMissAndLruEviction) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  CachedAnswer a;
  a.cost = 1;
  cache.put({1, 1}, "one", a);
  a.cost = 2;
  cache.put({2, 2}, "two", a);

  const auto hit = cache.get({1, 1}, "one");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 1);

  // {2,2} is now the LRU tail; a third insert evicts it.
  a.cost = 3;
  cache.put({3, 3}, "three", a);
  EXPECT_FALSE(cache.get({2, 2}, "two").has_value());
  EXPECT_TRUE(cache.get({1, 1}, "one").has_value());
  EXPECT_TRUE(cache.get({3, 3}, "three").has_value());
  EXPECT_EQ(cache.size(), 2u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCache, CollisionDegradesToMiss) {
  ResultCache cache(4, 1);
  CachedAnswer a;
  a.cost = 7;
  cache.put({42, 1}, "text-a", a);
  // Same 64-bit shard key, different second word / different text: miss.
  EXPECT_FALSE(cache.get({42, 2}, "text-a").has_value());
  EXPECT_FALSE(cache.get({42, 1}, "text-b").has_value());
  EXPECT_TRUE(cache.get({42, 1}, "text-a").has_value());
}

/// Current level of gauge `g`.
std::int64_t gauge_level(obs::Gauge g) { return obs::snapshot()[g.row].value; }

/// Current level of the cache's capacity gauges: {bytes, entries}.
std::pair<std::int64_t, std::int64_t> cache_gauges() {
  return {gauge_level(obs::m::svc_cache_bytes),
          gauge_level(obs::m::svc_cache_entries)};
}

TEST(ResultCache, AccountsBytesAndShardOccupancy) {
  const auto before = cache_gauges();
  {
    ResultCache cache(/*capacity=*/2, /*shards=*/1);
    EXPECT_EQ(cache.bytes(), 0u);
    CachedAnswer a;
    a.cost = 1;
    a.allocation.task_ecu = {0, 1, 0};
    cache.put({1, 1}, "one", a);
    cache.put({2, 2}, "twotwo", a);
    EXPECT_GT(cache.bytes(), 0u);
    const auto occupancy = cache.shard_occupancy();
    ASSERT_EQ(occupancy.size(), 1u);
    EXPECT_EQ(occupancy[0].entries, 2u);
    EXPECT_EQ(occupancy[0].capacity, 2u);
    EXPECT_EQ(occupancy[0].bytes, cache.bytes());

    // Eviction keeps bytes in step with entries: the byte count after
    // insert+evict equals the two survivors' footprints.
    const std::size_t before_evict = cache.bytes();
    cache.put({3, 3}, "three", a);
    EXPECT_EQ(cache.shard_occupancy()[0].entries, 2u);
    EXPECT_NE(cache.bytes(), 0u);
    EXPECT_LE(cache.bytes(), before_evict + 1024);

    const auto during = cache_gauges();
    EXPECT_EQ(during.first - before.first,
              static_cast<std::int64_t>(cache.bytes()));
    EXPECT_EQ(during.second - before.second, 2);

    // The capacity gauges reach the `metrics` verb's document and the
    // Prometheus exposition like every other metric.
    const auto doc = obs::json_parse(obs::metrics_full_json());
    ASSERT_TRUE(doc.has_value());
    const obs::JsonValue* entry = doc->get("svc.cache.bytes");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->get_string("kind"), "gauge");
    EXPECT_GT(entry->get_number("value").value_or(0.0), 0.0);
    const std::string prom = obs::prometheus_from_snapshot(obs::snapshot());
    EXPECT_NE(prom.find("# TYPE svc_cache_bytes gauge"), std::string::npos);
  }
  // Destruction retracts the cache's whole footprint from the gauges.
  EXPECT_EQ(cache_gauges(), before);
}

// --- Scheduler ---------------------------------------------------------

SchedulerOptions quick_options(int workers = 2) {
  SchedulerOptions o;
  o.workers = workers;
  o.anneal_iterations = 500;
  return o;
}

TEST(Scheduler, SolvesAndServesPermutedResubmitFromCache) {
  Scheduler scheduler(quick_options());

  JobRequest first;
  first.problem = parse(kSystem);
  first.objective = alloc::Objective::sum_trt();
  const auto id1 = scheduler.submit(first);
  ASSERT_TRUE(id1.has_value());
  const auto snap1 = scheduler.wait(*id1, 60.0);
  ASSERT_TRUE(snap1.has_value());
  EXPECT_EQ(snap1->state, JobState::kDone);
  EXPECT_EQ(snap1->answer.status, "optimal");
  EXPECT_TRUE(snap1->answer.proven_optimal);
  EXPECT_FALSE(snap1->answer.cached);
  ASSERT_TRUE(snap1->answer.has_allocation);

  // The permuted twin must be served from the cache, with the allocation
  // translated into *its* indexing.
  JobRequest second;
  second.problem = parse(kSystemPermuted);
  second.objective = alloc::Objective::sum_trt();
  const auto id2 = scheduler.submit(second);
  ASSERT_TRUE(id2.has_value());
  const auto snap2 = scheduler.wait(*id2, 60.0);
  ASSERT_TRUE(snap2.has_value());
  EXPECT_EQ(snap2->state, JobState::kDone);
  EXPECT_TRUE(snap2->answer.cached);
  EXPECT_EQ(snap2->answer.cost, snap1->answer.cost);
  ASSERT_TRUE(snap2->answer.has_allocation);
  const alloc::Problem permuted = parse(kSystemPermuted);
  EXPECT_TRUE(rt::verify(permuted.tasks, permuted.arch,
                         snap2->answer.allocation)
                  .feasible);
  const auto cost = alloc::evaluate_allocation(
      permuted, second.objective, snap2->answer.allocation);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, snap2->answer.cost);

  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  scheduler.shutdown(/*drain=*/true);
}

TEST(Scheduler, DeadlineExpiryReturnsIncumbentWithLowerBound) {
  SchedulerOptions options = quick_options(1);
  options.anneal_iterations = 20000;  // make sure there IS an incumbent
  Scheduler scheduler(options);

  JobRequest request;
  request.problem = workload::tindell_prefix(30);  // seconds-scale solve
  request.objective = alloc::Objective::ring_trt(0);
  request.deadline_s = 0.25;
  const auto id = scheduler.submit(request);
  ASSERT_TRUE(id.has_value());
  const auto snap = scheduler.wait(*id, 60.0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kDone);
  EXPECT_FALSE(snap->answer.proven_optimal);
  EXPECT_TRUE(snap->answer.deadline_expired);
  ASSERT_TRUE(snap->answer.has_allocation);  // the anytime incumbent
  EXPECT_EQ(snap->answer.status, "feasible");
  EXPECT_LE(snap->answer.lower_bound, snap->answer.cost);
  // Feasible against the original instance, not just claimed.
  EXPECT_TRUE(rt::verify(request.problem.tasks, request.problem.arch,
                         snap->answer.allocation)
                  .feasible);
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
  scheduler.shutdown(true);
}

TEST(Scheduler, CancelMidSolveFreesTheWorker) {
  Scheduler scheduler(quick_options(1));  // single worker: it must free up

  JobRequest slow;
  slow.problem = workload::tindell_prefix(30);
  slow.objective = alloc::Objective::ring_trt(0);
  const auto slow_id = scheduler.submit(slow);
  ASSERT_TRUE(slow_id.has_value());
  // Let it get picked up, then cancel mid-solve.
  for (int i = 0; i < 2000; ++i) {
    const auto s = scheduler.status(*slow_id);
    ASSERT_TRUE(s.has_value());
    if (s->state != JobState::kQueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.cancel(*slow_id));
  const auto cancelled = scheduler.wait(*slow_id, 60.0);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(*slow_id));  // already terminal

  // The (sole) worker must now pick up and finish new work.
  JobRequest quick;
  quick.problem = parse(kSystem);
  quick.objective = alloc::Objective::sum_trt();
  const auto quick_id = scheduler.submit(quick);
  ASSERT_TRUE(quick_id.has_value());
  const auto done = scheduler.wait(*quick_id, 60.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone);
  EXPECT_EQ(done->answer.status, "optimal");
  scheduler.shutdown(true);
}

TEST(Scheduler, BoundedQueueRejectsOverflow) {
  SchedulerOptions options = quick_options(1);
  options.queue_capacity = 1;
  Scheduler scheduler(options);

  JobRequest busy;
  busy.problem = workload::tindell_prefix(30);
  busy.objective = alloc::Objective::ring_trt(0);
  const auto running = scheduler.submit(busy);
  ASSERT_TRUE(running.has_value());
  for (int i = 0; i < 2000; ++i) {
    if (scheduler.status(*running)->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  JobRequest queued;
  queued.problem = workload::tindell_prefix(29);
  queued.objective = alloc::Objective::ring_trt(0);
  const auto waiting = scheduler.submit(queued);
  ASSERT_TRUE(waiting.has_value());

  JobRequest bounced;
  bounced.problem = workload::tindell_prefix(28);
  bounced.objective = alloc::Objective::ring_trt(0);
  EXPECT_FALSE(scheduler.submit(bounced).has_value());
  EXPECT_EQ(scheduler.stats().rejected, 1u);

  scheduler.cancel(*running);
  scheduler.cancel(*waiting);
  scheduler.shutdown(/*drain=*/false);
}

// --- Protocol ----------------------------------------------------------

// --- Lock-discipline regressions ---------------------------------------
//
// Each test pins a race the thread-safety annotation sweep surfaced.
// They are functional here and data-race detectors in the TSan CI job
// (which runs this suite via -R SchedulerRace): with the fixes reverted,
// TSan reports the racing pair; without TSan the shutdown test still
// crashes on the double-join.

// submit() used to publish the job (jobs_.emplace / queue_.push_back)
// and only then assign ctx.req and queue_span — so a worker claiming the
// job immediately, or a concurrent inspect(), read those fields while
// submit() was still writing them. Both are now assigned before the job
// is reachable by anyone else. Distinct instances per submission keep
// the cache out of the way (a hit would complete the job inline and
// never touch a worker).
TEST(SchedulerRace, SubmitVsWorkerAndInspectAssignsBeforePublication) {
  Scheduler scheduler(quick_options(4));

  std::vector<std::string> ids;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> known{0};
  // Two readers hammer inspect/status/request_trace_id on every id the
  // submitter has published so far, racing the workers and finalize().
  std::vector<std::string> shared_ids(64);
  auto reader = [&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = known.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        const auto live = scheduler.inspect(shared_ids[i]);
        ASSERT_TRUE(live.has_value());
        EXPECT_NE(live->req, 0u);  // assigned before publication
        const auto req = scheduler.request_trace_id(shared_ids[i]);
        ASSERT_TRUE(req.has_value());
        EXPECT_NE(*req, 0u);
        scheduler.status(shared_ids[i]);
      }
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);

  for (int i = 0; i < 24; ++i) {
    JobRequest request;
    // Vary the memory budget so every instance fingerprints differently.
    std::string text(kSystem);
    const auto pos = text.find("memory 0 100");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 12, "memory 0 " + std::to_string(100 + i));
    request.problem = parse(text);
    request.objective = alloc::Objective::sum_trt();
    const auto id = scheduler.submit(request);
    ASSERT_TRUE(id.has_value());
    shared_ids[static_cast<std::size_t>(i)] = *id;
    known.store(static_cast<std::size_t>(i) + 1, std::memory_order_release);
    ids.push_back(*id);
  }
  for (const auto& id : ids) {
    const auto snap = scheduler.wait(id, 120.0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, JobState::kDone);
    EXPECT_TRUE(snap->answer.proven_optimal);
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  scheduler.shutdown(/*drain=*/true);
}

// shutdown() used to let two concurrent callers both reach t.join() on
// the same std::thread (joined_ flipped only after the joins) — UB that
// typically terminates. It is now serialized by a dedicated shutdown
// mutex held across the drain + join, with mu_ free so workers progress.
TEST(SchedulerRace, ConcurrentShutdownJoinsWorkersExactlyOnce) {
  Scheduler scheduler(quick_options(2));
  for (int i = 0; i < 4; ++i) {
    JobRequest request;
    request.problem = parse(kSystem);
    request.objective = alloc::Objective::sum_trt();
    scheduler.submit(request);
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&scheduler]() { scheduler.shutdown(true); });
  }
  for (auto& t : stoppers) t.join();
  scheduler.shutdown(true);  // still idempotent afterwards
  const ServiceStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed + stats.cancelled, stats.submitted);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- Incremental sessions ----------------------------------------------

inc::InstancePatch ops_from_json(const std::string& json) {
  std::string error;
  auto patch = inc::parse_patch(*obs::json_parse(json), &error);
  EXPECT_TRUE(patch.has_value()) << error;
  return patch.value_or(inc::InstancePatch{});
}

TEST(SchedulerSession, OpenReviseCloseLifecycle) {
  Scheduler scheduler(quick_options(1));

  JobRequest open;
  open.problem = parse(kSystem);
  open.objective = alloc::Objective::sum_trt();
  const auto opened = scheduler.session_open(std::move(open));
  ASSERT_TRUE(opened.has_value());
  const std::string sid = opened->first;
  EXPECT_EQ(opened->second.status, "optimal");
  EXPECT_TRUE(opened->second.proven_optimal);
  EXPECT_TRUE(opened->second.cache_stored);
  EXPECT_GT(opened->second.groups_added, 0);
  const std::int64_t base_cost = opened->second.cost;

  const auto revised = scheduler.session_revise(
      sid,
      ops_from_json(
          R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":35}])"),
      0.0, 0);
  ASSERT_TRUE(revised.has_value());
  EXPECT_EQ(revised->status, "optimal");
  EXPECT_GT(revised->groups_unchanged, 0u);
  EXPECT_GT(revised->groups_retired, 0);

  const auto back = scheduler.session_revise(
      sid,
      ops_from_json(
          R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":25}])"),
      0.0, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cost, base_cost);

  // A structurally invalid patch reports status "error", not nullopt.
  const auto bad = scheduler.session_revise(
      sid, ops_from_json(R"([{"op":"remove_task","task":"ghost"}])"), 0.0,
      0);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, "error");
  EXPECT_FALSE(bad->error.empty());

  const ServiceStats mid = scheduler.stats();
  EXPECT_EQ(mid.sessions_opened, 1u);
  EXPECT_EQ(mid.active_sessions, 1u);
  EXPECT_EQ(mid.revises, 3u);

  EXPECT_TRUE(scheduler.session_close(sid));
  EXPECT_FALSE(scheduler.session_close(sid));
  EXPECT_FALSE(scheduler.session_revise(sid, inc::InstancePatch{}, 0.0, 0)
                   .has_value());
  const ServiceStats end = scheduler.stats();
  EXPECT_EQ(end.sessions_closed, 1u);
  EXPECT_EQ(end.active_sessions, 0u);
  scheduler.shutdown(/*drain=*/true);
}

TEST(SchedulerSession, OpenSessionsLeaveTheLiveGaugeWithTheScheduler) {
  const std::int64_t before = gauge_level(obs::m::svc_sessions_live);
  {
    Scheduler scheduler(quick_options(1));
    JobRequest open;
    open.problem = parse(kSystem);
    open.objective = alloc::Objective::sum_trt();
    ASSERT_TRUE(scheduler.session_open(std::move(open)).has_value());
    EXPECT_EQ(gauge_level(obs::m::svc_sessions_live), before + 1);
  }
  // Destroyed with the session still open: its share is retracted.
  EXPECT_EQ(gauge_level(obs::m::svc_sessions_live), before);
}

TEST(SchedulerSession, ReviseDoesNotPoisonBaseCacheEntry) {
  // The satellite regression: a session's post-edit answers must land
  // under the *edited* instance's fingerprint. Storing them under the
  // base fingerprint would make a later cold submit of the base instance
  // replay the edited verdict — here, a false "infeasible".
  Scheduler scheduler(quick_options(1));

  JobRequest open;
  open.problem = parse(kSystem);
  open.objective = alloc::Objective::sum_trt();
  const auto opened = scheduler.session_open(std::move(open));
  ASSERT_TRUE(opened.has_value());
  const std::int64_t base_cost = opened->second.cost;

  // Infeasible edit (control forced onto ECU 1 with a deadline-busting
  // WCET): the session proves it and caches the verdict.
  const std::string kill =
      R"([{"op":"set_wcet","task":"control","ecu":0,"wcet":-1},)"
      R"({"op":"set_wcet","task":"control","ecu":1,"wcet":90}])";
  const auto revised =
      scheduler.session_revise(opened->first, ops_from_json(kill), 0.0, 0);
  ASSERT_TRUE(revised.has_value());
  EXPECT_EQ(revised->status, "infeasible");
  EXPECT_TRUE(revised->proven_optimal);
  EXPECT_TRUE(revised->cache_stored);
  EXPECT_FALSE(revised->core.empty());

  // Cold submit of the *base* instance: must be the base optimum, served
  // from the entry the opening solve stored.
  JobRequest cold_base;
  cold_base.problem = parse(kSystem);
  cold_base.objective = alloc::Objective::sum_trt();
  const auto id1 = scheduler.submit(std::move(cold_base));
  ASSERT_TRUE(id1.has_value());
  const auto snap1 = scheduler.wait(*id1, 60.0);
  ASSERT_TRUE(snap1.has_value());
  EXPECT_EQ(snap1->answer.status, "optimal");
  EXPECT_TRUE(snap1->answer.cached);
  EXPECT_EQ(snap1->answer.cost, base_cost);

  // Cold submit of the *edited* instance: served from the revise's entry.
  alloc::Problem edited = parse(kSystem);
  ASSERT_FALSE(inc::apply_patch(ops_from_json(kill), edited).has_value());
  JobRequest cold_edited;
  cold_edited.problem = std::move(edited);
  cold_edited.objective = alloc::Objective::sum_trt();
  const auto id2 = scheduler.submit(std::move(cold_edited));
  ASSERT_TRUE(id2.has_value());
  const auto snap2 = scheduler.wait(*id2, 60.0);
  ASSERT_TRUE(snap2.has_value());
  EXPECT_EQ(snap2->answer.status, "infeasible");
  EXPECT_TRUE(snap2->answer.cached);
  scheduler.shutdown(/*drain=*/true);
}

TEST(SchedulerSession, CachedSessionAnswerServesPermutedColdSubmit) {
  // A feasible revise's allocation is stored in canonical indexing
  // (canonical_allocation), so a cold submit of a *permuted* declaration
  // of the edited system gets a cache hit with a valid allocation in its
  // own indexing.
  Scheduler scheduler(quick_options(1));

  JobRequest open;
  open.problem = parse(kSystem);
  open.objective = alloc::Objective::sum_trt();
  const auto opened = scheduler.session_open(std::move(open));
  ASSERT_TRUE(opened.has_value());

  const std::string edit =
      R"([{"op":"set_deadline","task":"sensor","deadline":35}])";
  const auto revised =
      scheduler.session_revise(opened->first, ops_from_json(edit), 0.0, 0);
  ASSERT_TRUE(revised.has_value());
  ASSERT_EQ(revised->status, "optimal");
  ASSERT_TRUE(revised->cache_stored);

  alloc::Problem permuted = parse(kSystemPermuted);
  ASSERT_FALSE(inc::apply_patch(ops_from_json(edit), permuted).has_value());
  JobRequest cold;
  cold.problem = permuted;
  cold.objective = alloc::Objective::sum_trt();
  const auto id = scheduler.submit(std::move(cold));
  ASSERT_TRUE(id.has_value());
  const auto snap = scheduler.wait(*id, 60.0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->answer.status, "optimal");
  EXPECT_TRUE(snap->answer.cached);
  EXPECT_EQ(snap->answer.cost, revised->cost);
  ASSERT_TRUE(snap->answer.has_allocation);
  EXPECT_TRUE(
      rt::verify(permuted.tasks, permuted.arch, snap->answer.allocation)
          .feasible);
  const auto cost = alloc::evaluate_allocation(
      permuted, alloc::Objective::sum_trt(), snap->answer.allocation);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, snap->answer.cost);
  scheduler.shutdown(/*drain=*/true);
}

TEST(Protocol, ParsesRequestsAndRejectsGarbage) {
  std::string error;
  const auto submit = parse_request(
      R"({"verb":"submit","problem":"system 1","objective":"feasibility",)"
      R"("deadline_ms":250,"conflicts":5000,"threads":1,"wait":true})",
      &error);
  ASSERT_TRUE(submit.has_value()) << error;
  EXPECT_EQ(submit->verb, Request::Verb::kSubmit);
  EXPECT_EQ(submit->problem_text, "system 1");
  EXPECT_EQ(submit->objective, "feasibility");
  EXPECT_DOUBLE_EQ(submit->deadline_ms, 250.0);
  EXPECT_EQ(submit->conflicts, 5000);
  EXPECT_TRUE(submit->wait);
  // Each request is solved single-threaded: "threads":1 is accepted (and
  // changes nothing), any other count is a bad request.
  for (const char* threads : {"2", "1000000", "0"}) {
    std::string code;
    EXPECT_FALSE(parse_request(std::string(R"({"verb":"submit",)") +
                                   R"("problem":"system 1","threads":)" +
                                   threads + "}",
                               &error, &code)
                     .has_value())
        << threads;
    EXPECT_EQ(code, "bad_request") << threads;
  }

  const auto cancel =
      parse_request(R"({"verb":"cancel","id":"r7"})", &error);
  ASSERT_TRUE(cancel.has_value());
  EXPECT_EQ(cancel->verb, Request::Verb::kCancel);
  EXPECT_EQ(cancel->id, "r7");

  const auto metrics = parse_request(R"({"verb":"metrics"})", &error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_EQ(metrics->verb, Request::Verb::kMetrics);

  EXPECT_FALSE(parse_request("not json", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"no":"verb"})", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"verb":"frobnicate"})", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"verb":"status"})", &error).has_value());
  EXPECT_FALSE(parse_request(R"({"verb":"submit"})", &error).has_value());
}

TEST(Protocol, ResponseLinesAreWellFormedJson) {
  JobSnapshot snap;
  snap.id = "r1";
  snap.state = JobState::kDone;
  snap.answer.status = "feasible";
  snap.answer.deadline_expired = true;
  snap.answer.cost = 42;
  snap.answer.lower_bound = 17;
  snap.answer.has_allocation = true;
  snap.answer.allocation.task_ecu = {0, 1, 0};
  const auto doc = obs::json_parse(snapshot_line(snap));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("state"), "done");
  EXPECT_EQ(doc->get_number("cost"), 42.0);
  EXPECT_EQ(doc->get_number("lower_bound"), 17.0);
  const obs::JsonValue* proven = doc->get("proven_optimal");
  ASSERT_NE(proven, nullptr);
  EXPECT_FALSE(proven->b);
  const obs::JsonValue* ecus = doc->get("task_ecu");
  ASSERT_NE(ecus, nullptr);
  EXPECT_EQ(ecus->array.size(), 3u);

  EXPECT_TRUE(obs::json_parse(error_line(R"(bad "quoted" input)")).has_value());
  EXPECT_TRUE(obs::json_parse(stats_line(ServiceStats{})).has_value());

  // The metrics verb's response wraps the full typed registry snapshot.
  const auto metrics = obs::json_parse(metrics_line());
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->get("ok")->b);
  ASSERT_NE(metrics->get("metrics"), nullptr);
  EXPECT_TRUE(metrics->get("metrics")->is_object());
}

TEST(Protocol, ErrorCodesClassifyParseFailures) {
  // Every rejection carries a machine-readable code alongside the human
  // message: bad_json (unparseable line), bad_request (well-formed but
  // incomplete), unknown_verb (verb outside the vocabulary).
  std::string error, code;
  EXPECT_FALSE(parse_request("not json", &error, &code).has_value());
  EXPECT_EQ(code, "bad_json");
  EXPECT_FALSE(parse_request(R"({"no":"verb"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");
  EXPECT_FALSE(
      parse_request(R"({"verb":"frobnicate"})", &error, &code).has_value());
  EXPECT_EQ(code, "unknown_verb");
  EXPECT_FALSE(
      parse_request(R"({"verb":"status"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");  // id-verbs without an id
  EXPECT_FALSE(
      parse_request(R"({"verb":"inspect"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");
  EXPECT_FALSE(
      parse_request(R"({"verb":"submit"})", &error, &code).has_value());
  EXPECT_EQ(code, "bad_request");

  // inspect with an id parses; dump's id is optional (absent = all rings).
  const auto inspect =
      parse_request(R"({"verb":"inspect","id":"r1"})", &error, &code);
  ASSERT_TRUE(inspect.has_value()) << error;
  EXPECT_EQ(inspect->verb, Request::Verb::kInspect);
  EXPECT_EQ(inspect->id, "r1");
  const auto dump = parse_request(R"({"verb":"dump"})", &error, &code);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(dump->verb, Request::Verb::kDump);
  EXPECT_TRUE(dump->id.empty());

  // The error reply line carries the code; callers that don't pick one
  // get the generic "error".
  const auto reply = obs::json_parse(error_line("nope", "unknown_id"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->get("ok")->b);
  EXPECT_EQ(reply->get_string("error"), "nope");
  EXPECT_EQ(reply->get_string("code"), "unknown_id");
  EXPECT_EQ(obs::json_parse(error_line("x"))->get_string("code"), "error");
}

TEST(Protocol, RejectsNonFiniteAndOutOfRangeNumbers) {
  // Checked before any integer cast: 1e300 does not fit an int64, and an
  // overflowing literal parses as infinity.
  const std::string problem = R"("problem":"system 1")";
  const std::string patch = R"("session":"s1","edits":[])";
  const std::pair<std::string, std::string> verbs[] = {
      {"submit", problem}, {"session_open", problem}, {"revise", patch}};
  for (const auto& [verb, body] : verbs) {
    for (const char* field :
         {R"("deadline_ms":1e300)", R"("deadline_ms":1e999)",
          R"("conflicts":1e300)", R"("conflicts":-1e999)"}) {
      const std::string line =
          R"({"verb":")" + verb + R"(",)" + body + "," + field + "}";
      std::string error, code;
      EXPECT_FALSE(parse_request(line, &error, &code).has_value()) << line;
      EXPECT_EQ(code, "bad_request") << line;
    }
  }
  std::string error, code;
  EXPECT_FALSE(parse_request(R"({"verb":"submit",)" + problem +
                                 R"(,"threads":1e300})",
                             &error, &code)
                   .has_value());
  EXPECT_EQ(code, "bad_request");

  // A finite thread count other than 1 is rejected too.
  EXPECT_FALSE(parse_request(R"({"verb":"submit",)" + problem +
                                 R"(,"threads":1e6})",
                             &error, &code)
                   .has_value());
  EXPECT_EQ(code, "bad_request");

  // In range: accepted.
  const auto ok = parse_request(
      R"({"verb":"submit",)" + problem +
          R"(,"deadline_ms":1e9,"conflicts":1e15,"threads":1})",
      &error, &code);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_DOUBLE_EQ(ok->deadline_ms, kMaxDeadlineMs);
  EXPECT_EQ(ok->conflicts, static_cast<std::int64_t>(kMaxConflicts));
}

TEST(ResultCache, AdmissionRejectsAnAnswerWhoseCostIsWrong) {
  const Canonical canon =
      canonicalize(parse(kSystem), alloc::Objective::sum_trt());
  alloc::OptimizeResult result =
      alloc::optimize(canon.problem, canon.objective, {});
  ASSERT_EQ(result.status, alloc::OptimizeResult::Status::kOptimal);

  ResultCache cache(4, 1);
  result.cost += 1;  // a verified allocation, but not at the reported cost
  EXPECT_FALSE(admit_answer(cache, canon, result, result.allocation));
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_FALSE(cache.get(canon.key, canon.text).has_value());

  result.cost -= 1;
  EXPECT_TRUE(admit_answer(cache, canon, result, result.allocation));
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// --- Server (protocol dispatch without sockets) ------------------------

std::string submit_line(const std::string& problem, const std::string& obj,
                        bool wait) {
  obs::JsonObject o;
  o.str("verb", "submit").str("problem", problem).str("objective", obj);
  if (wait) o.boolean("wait", true);
  return o.build();
}

TEST(Server, HandlesFullRequestLifecycle) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  // Submit + wait: terminal snapshot straight away.
  const auto first =
      obs::json_parse(server.handle_line(submit_line(kSystem, "sum-trt",
                                                     /*wait=*/true)));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->get_string("state"), "done");
  EXPECT_EQ(first->get_string("status"), "optimal");

  // Permuted twin: cache hit.
  const auto second = obs::json_parse(
      server.handle_line(submit_line(kSystemPermuted, "sum-trt", true)));
  ASSERT_TRUE(second.has_value());
  const obs::JsonValue* cached = second->get("cached");
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->b);
  EXPECT_EQ(second->get_number("cost"), first->get_number("cost"));

  // Async submit + status + result.
  const auto ack = obs::json_parse(
      server.handle_line(submit_line(kSystem, "feasibility", false)));
  ASSERT_TRUE(ack.has_value());
  const auto ack_id = ack->get_string("id");
  ASSERT_TRUE(ack_id.has_value());
  const auto result = obs::json_parse(server.handle_line(
      obs::JsonObject().str("verb", "result").str("id", *ack_id).build()));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->get_string("state"), "done");

  // Errors: malformed problem, unknown id, junk line.
  const auto bad_problem = obs::json_parse(
      server.handle_line(submit_line("system 1\nbogus line", "sum-trt", false)));
  ASSERT_TRUE(bad_problem.has_value());
  EXPECT_FALSE(bad_problem->get("ok")->b);
  EXPECT_NE(bad_problem->get_string("error")->find("line 2"),
            std::string::npos);
  const auto unknown = obs::json_parse(server.handle_line(
      R"({"verb":"status","id":"r999"})"));
  EXPECT_FALSE(unknown->get("ok")->b);
  EXPECT_FALSE(obs::json_parse(server.handle_line("][nonsense"))->get("ok")->b);

  // Stats reflect the cache hit.
  const auto stats = obs::json_parse(
      server.handle_line(R"({"verb":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(*stats->get_number("cache_hits"), 1.0);

  // Shutdown verb acknowledges and flips the stop flag.
  EXPECT_FALSE(server.stop_requested());
  const auto bye = obs::json_parse(
      server.handle_line(R"({"verb":"shutdown","drain":true})"));
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(bye->get("ok")->b);
  EXPECT_TRUE(server.stop_requested());
}

/// Connect to a listening Unix socket; -1 on failure.
int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read one newline-terminated reply ("" on EOF first).
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

TEST(Server, OversizedLineGetsStructuredErrorAndClose) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  const std::string path = ::testing::TempDir() + "optalloc_line_cap_" +
                           std::to_string(::getpid()) + ".sock";
  ASSERT_TRUE(server.listen_unix(path));
  std::thread loop([&server] { server.run(); });

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  // A normal line is served as usual on the same connection.
  const std::string stats = R"({"verb":"stats"})" "\n";
  ASSERT_EQ(::send(fd, stats.data(), stats.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stats.size()));
  const auto ok = obs::json_parse(read_line(fd));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->get("ok")->b);

  // One byte past the cap, never terminated: the server must answer with
  // line_too_long and hang up instead of buffering on.
  const std::string block(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent <= kMaxLineBytes) {
    const std::size_t want = std::min(block.size(), kMaxLineBytes + 1 - sent);
    const ssize_t n = ::send(fd, block.data(), want, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  const auto err = obs::json_parse(read_line(fd));
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->get("ok")->b);
  EXPECT_EQ(err->get_string("code"), "line_too_long");
  char c = 0;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0);  // closed by the server
  ::close(fd);

  server.request_stop();
  loop.join();
}

TEST(Server, UnknownVerbRepliesWithStructuredCode) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  const auto bad =
      obs::json_parse(server.handle_line(R"({"verb":"frobnicate"})"));
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->get("ok")->b);
  EXPECT_EQ(bad->get_string("code"), "unknown_verb");
  EXPECT_TRUE(bad->get_string("error").has_value());

  const auto junk = obs::json_parse(server.handle_line("][nonsense"));
  EXPECT_EQ(junk->get_string("code"), "bad_json");
  const auto incomplete =
      obs::json_parse(server.handle_line(R"({"verb":"status"})"));
  EXPECT_EQ(incomplete->get_string("code"), "bad_request");
}

TEST(Server, SessionVerbsLifecycle) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  const auto opened = obs::json_parse(server.handle_line(
      obs::JsonObject()
          .str("verb", "session_open")
          .str("problem", kSystem)
          .str("objective", "sum-trt")
          .build()));
  ASSERT_TRUE(opened.has_value());
  ASSERT_TRUE(opened->get("ok")->b);
  const auto sid = opened->get_string("session");
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(opened->get_string("status"), "optimal");
  ASSERT_NE(opened->get("task_ecu"), nullptr);
  const double base_cost = *opened->get_number("cost");

  // Feasible edit, then the inverse edit: optimum must come back.
  const auto worse = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"set_wcet","task":"sensor","ecu":0,"wcet":30}]})"));
  ASSERT_TRUE(worse.has_value());
  ASSERT_TRUE(worse->get("ok")->b);
  EXPECT_EQ(worse->get_string("status"), "optimal");
  const auto back = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"set_wcet","task":"sensor","ecu":0,"wcet":8}]})"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back->get_number("cost"), base_cost);

  // Infeasible edit: unsat_core names the conflicting constraint groups.
  const auto dead = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"set_wcet","task":"control","ecu":0,"wcet":-1},)" +
      R"({"op":"set_wcet","task":"control","ecu":1,"wcet":90}]})"));
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->get_string("status"), "infeasible");
  const obs::JsonValue* core = dead->get("unsat_core");
  ASSERT_NE(core, nullptr);
  ASSERT_EQ(core->kind, obs::JsonValue::Kind::kArray);
  EXPECT_FALSE(core->array.empty());

  // Error codes: malformed edits, unknown session, missing fields.
  const auto bad_patch = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":")" + *sid +
      R"(","edits":[{"op":"transmogrify"}]})"));
  EXPECT_EQ(bad_patch->get_string("code"), "bad_patch");
  const auto unknown = obs::json_parse(server.handle_line(
      R"({"verb":"revise","session":"s999","edits":[]})"));
  EXPECT_EQ(unknown->get_string("code"), "unknown_session");
  const auto missing = obs::json_parse(
      server.handle_line(R"({"verb":"revise","session":"s1"})"));
  EXPECT_EQ(missing->get_string("code"), "bad_request");

  const auto closed = obs::json_parse(server.handle_line(
      R"({"verb":"session_close","session":")" + *sid + R"("})"));
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->get("ok")->b);
  const auto closed_again = obs::json_parse(server.handle_line(
      R"({"verb":"session_close","session":")" + *sid + R"("})"));
  EXPECT_EQ(closed_again->get_string("code"), "unknown_session");
}

TEST(Server, SessionOpenPastTheCapIsRefused) {
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  const std::string open_line = obs::JsonObject()
                                    .str("verb", "session_open")
                                    .str("problem", kSystem)
                                    .str("objective", "sum-trt")
                                    .build();
  std::string last_id;
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    const auto opened = obs::json_parse(server.handle_line(open_line));
    ASSERT_TRUE(opened.has_value());
    ASSERT_TRUE(opened->get("ok")->b) << "session " << i;
    last_id = *opened->get_string("session");
  }

  // One past the cap: refused with its own code, not shutdown's.
  const auto refused = obs::json_parse(server.handle_line(open_line));
  ASSERT_TRUE(refused.has_value());
  EXPECT_FALSE(refused->get("ok")->b);
  EXPECT_EQ(refused->get_string("code"), "too_many_sessions");
  EXPECT_EQ(server.scheduler().stats().active_sessions, kMaxSessions);

  // Closing one frees its slot.
  const auto closed = obs::json_parse(server.handle_line(
      R"({"verb":"session_close","session":")" + last_id + R"("})"));
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->get("ok")->b);
  const auto reopened = obs::json_parse(server.handle_line(open_line));
  ASSERT_TRUE(reopened.has_value());
  EXPECT_TRUE(reopened->get("ok")->b);
  EXPECT_EQ(reopened->get_string("status"), "optimal");
}

TEST(Server, InspectAndDumpVerbs) {
  obs::flight_reset();
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  // Both verbs reject ids the scheduler has never seen.
  const auto missing = obs::json_parse(
      server.handle_line(R"({"verb":"inspect","id":"r999"})"));
  EXPECT_FALSE(missing->get("ok")->b);
  EXPECT_EQ(missing->get_string("code"), "unknown_id");
  const auto no_dump =
      obs::json_parse(server.handle_line(R"({"verb":"dump","id":"r999"})"));
  EXPECT_FALSE(no_dump->get("ok")->b);
  EXPECT_EQ(no_dump->get_string("code"), "unknown_id");

  const auto done = obs::json_parse(
      server.handle_line(submit_line(kSystem, "sum-trt", /*wait=*/true)));
  ASSERT_TRUE(done.has_value());
  const auto id = done->get_string("id");
  ASSERT_TRUE(id.has_value());

  // inspect on a finished job: terminal phase, the proven interval has
  // collapsed, and the answer's status fields ride along.
  const auto insp = obs::json_parse(server.handle_line(
      obs::JsonObject().str("verb", "inspect").str("id", *id).build()));
  ASSERT_TRUE(insp.has_value());
  EXPECT_TRUE(insp->get("ok")->b);
  EXPECT_EQ(insp->get_string("id"), *id);
  EXPECT_EQ(insp->get_string("state"), "done");
  EXPECT_EQ(insp->get_string("phase"), "finished");
  EXPECT_GE(*insp->get_number("elapsed_ms"), 0.0);
  EXPECT_EQ(insp->get_string("status"), "optimal");
  EXPECT_TRUE(insp->get("proven_optimal")->b);
  EXPECT_EQ(insp->get_number("upper"), insp->get_number("cost"));
  const auto req_field = insp->get_number("req");
  ASSERT_TRUE(req_field.has_value());
  EXPECT_GT(*req_field, 0.0);

  // dump filtered to that request: the flight ring replays the solve's
  // records (interval / solve notes at minimum), count matching.
  const auto dump = obs::json_parse(server.handle_line(
      obs::JsonObject().str("verb", "dump").str("id", *id).build()));
  ASSERT_TRUE(dump.has_value());
  EXPECT_TRUE(dump->get("ok")->b);
  const obs::JsonValue* events = dump->get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(dump->get_number("count"),
            static_cast<double>(events->array.size()));
  ASSERT_FALSE(events->array.empty());
  bool saw_solve = false;
  for (const auto& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_EQ(ev.get_number("req"), *req_field);  // filter honored
    if (ev.get_string("type") == "solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_solve);

  // Unfiltered dump (no id): a superset of the filtered one.
  const auto all = obs::json_parse(server.handle_line(R"({"verb":"dump"})"));
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->get("ok")->b);
  EXPECT_GE(*all->get_number("count"), *dump->get_number("count"));
}

TEST(Scheduler, InspectTracksLifecyclePhases) {
  Scheduler scheduler(quick_options(1));
  JobRequest request;
  request.problem = workload::tindell_prefix(30);  // long enough to observe
  request.objective = alloc::Objective::ring_trt(0);
  const auto id = scheduler.submit(request);
  ASSERT_TRUE(id.has_value());

  // Before the worker finishes, inspect must answer lock-free with a
  // non-terminal phase and a widening-at-worst interval.
  std::set<std::string> phases;
  for (int i = 0; i < 4000; ++i) {
    const auto ins = scheduler.inspect(*id);
    ASSERT_TRUE(ins.has_value());
    phases.insert(job_phase_name(ins->phase));
    if (ins->phase == JobPhase::kSolving && ins->sat_calls > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(phases.count("solving") > 0 || phases.count("finished") > 0)
      << "never saw the job leave the queue";

  EXPECT_TRUE(scheduler.cancel(*id));
  const auto final_snap = scheduler.wait(*id, 60.0);
  ASSERT_TRUE(final_snap.has_value());
  const auto ins = scheduler.inspect(*id);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(ins->phase, JobPhase::kFinished);
  EXPECT_EQ(ins->state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.inspect("bogus").has_value());
  EXPECT_FALSE(scheduler.request_trace_id("bogus").has_value());
  EXPECT_EQ(scheduler.request_trace_id(*id).value_or(0), ins->req);
  scheduler.shutdown(true);
}

TEST(Server, MetricsVerbExposesRequestHistograms) {
  obs::reset_metrics();
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);
  ASSERT_TRUE(
      obs::json_parse(server.handle_line(submit_line(kSystem, "sum-trt",
                                                     /*wait=*/true)))
          ->get("ok")
          ->b);

  const auto doc =
      obs::json_parse(server.handle_line(R"({"verb":"metrics"})"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->get("ok")->b);
  const obs::JsonValue* metrics = doc->get("metrics");
  ASSERT_NE(metrics, nullptr);

  // The wire document decodes into snapshot form; the request-latency
  // histogram must carry the completed request, with the p95 inside one
  // of its (non-empty) buckets.
  const auto decoded = obs::metrics_from_json(*metrics);
  bool found = false;
  for (const auto& m : decoded) {
    if (m.name != "svc.request_ms") continue;
    found = true;
    EXPECT_EQ(m.kind, obs::MetricKind::kHistogram);
    EXPECT_GE(m.value, 1);
    ASSERT_FALSE(m.buckets.empty());
    const double p95 = obs::histogram_quantile(m.buckets, 0.95);
    bool inside = false;
    for (const auto& b : m.buckets) {
      if (p95 >= b.lo && p95 < b.hi) inside = true;
    }
    EXPECT_TRUE(inside);
  }
  EXPECT_TRUE(found);

  // The decoded snapshot renders to Prometheus text like a local one.
  const std::string prom = obs::prometheus_from_snapshot(decoded);
  EXPECT_NE(prom.find("# TYPE svc_request_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("svc_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// --- Trace events ------------------------------------------------------

TEST(Trace, ServiceLifecycleEventsAreEmitted) {
  std::ostringstream trace;
  obs::trace_to_stream(&trace);

  {
    Scheduler scheduler(quick_options(1));
    JobRequest request;
    request.problem = parse(kSystem);
    request.objective = alloc::Objective::sum_trt();
    const auto id = scheduler.submit(request);
    ASSERT_TRUE(id.has_value());
    ASSERT_TRUE(scheduler.wait(*id, 60.0).has_value());
    const auto rerun = scheduler.submit(request);  // identical: cache hit
    ASSERT_TRUE(rerun.has_value());
    ASSERT_TRUE(scheduler.wait(*rerun, 60.0).has_value());

    JobRequest hopeless;
    hopeless.problem = workload::tindell_prefix(30);
    hopeless.objective = alloc::Objective::ring_trt(0);
    hopeless.deadline_s = 0.15;
    const auto late = scheduler.submit(hopeless);
    ASSERT_TRUE(late.has_value());
    const auto snap = scheduler.wait(*late, 60.0);
    ASSERT_TRUE(snap.has_value());
    EXPECT_TRUE(snap->answer.deadline_expired);
    scheduler.shutdown(true);
  }
  obs::trace_to_stream(nullptr);

  std::map<std::string, int> census;
  std::map<std::uint64_t, std::uint64_t> open_spans;  // span id -> req
  int solver_events = 0, solver_events_without_req = 0;
  std::set<std::uint64_t> reqs;
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const std::string type = *doc->get_string("type");
    ++census[type];
    const auto req = doc->get_number("req");
    if (req) reqs.insert(static_cast<std::uint64_t>(*req));
    if (type == "span_begin" || type == "span_end") {
      ASSERT_TRUE(req.has_value()) << line;  // all service spans belong
      const auto span = doc->get_number("span");
      ASSERT_TRUE(span.has_value()) << line;
      const auto id = static_cast<std::uint64_t>(*span);
      if (type == "span_begin") {
        EXPECT_EQ(open_spans.count(id), 0u) << "duplicate span " << line;
        open_spans[id] = static_cast<std::uint64_t>(*req);
      } else {
        // Every span_end matches an open span_begin of the same request.
        auto it = open_spans.find(id);
        ASSERT_NE(it, open_spans.end()) << "unmatched span_end " << line;
        EXPECT_EQ(it->second, static_cast<std::uint64_t>(*req));
        EXPECT_GE(*doc->get_number("seconds"), 0.0);
        open_spans.erase(it);
      }
    } else if (type == "solve" || type == "interval" || type == "optimum" ||
               type == "solver_restart") {
      ++solver_events;
      if (!req) ++solver_events_without_req;
    }
  }
  EXPECT_EQ(census["request_received"], 3);
  EXPECT_EQ(census["request_done"], 3);
  EXPECT_EQ(census["cache_hit"], 1);
  EXPECT_GE(census["deadline_expired"], 1);

  // Request correlation: spans balance, every solver-side event inherits
  // the request id from the worker's installed context, and the three
  // submissions got three distinct request ids.
  EXPECT_TRUE(open_spans.empty()) << open_spans.size() << " unclosed spans";
  EXPECT_EQ(census["span_begin"], census["span_end"]);
  EXPECT_GT(census["span_begin"], 0);
  EXPECT_GT(solver_events, 0);
  EXPECT_EQ(solver_events_without_req, 0);
  EXPECT_EQ(reqs.size(), 3u);
}

// --- Uptime + time-series query verb -----------------------------------

TEST(Scheduler, StatsReportUptimeAndStartTime) {
  const std::int64_t t0 = obs::wall_unix_ms();
  Scheduler scheduler(quick_options(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const ServiceStats stats = scheduler.stats();
  EXPECT_GT(stats.uptime_s, 0.0);
  EXPECT_LT(stats.uptime_s, 60.0);
  EXPECT_GE(stats.start_time_unix_ms, t0 - 1000);
  EXPECT_LE(stats.start_time_unix_ms, obs::wall_unix_ms() + 1000);

  const double first = stats.uptime_s;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const ServiceStats later = scheduler.stats();
  EXPECT_GT(later.uptime_s, first);
  EXPECT_EQ(later.start_time_unix_ms, stats.start_time_unix_ms);
  scheduler.shutdown(/*drain=*/true);
}

TEST(Protocol, StatsLineCarriesUptimeFields) {
  ServiceStats stats;
  stats.uptime_s = 12.5;
  stats.start_time_unix_ms = 1700000000123;
  const auto doc = obs::json_parse(stats_line(stats));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_number("uptime_s"), 12.5);
  EXPECT_EQ(doc->get_number("start_time_unix_ms"), 1700000000123.0);
}

TEST(Protocol, QueryVerbParsesAndSerializes) {
  std::string error, code;
  const auto catalogue =
      parse_request("{\"verb\":\"query\"}", &error, &code);
  ASSERT_TRUE(catalogue.has_value()) << error;
  EXPECT_EQ(catalogue->verb, Request::Verb::kQuery);
  EXPECT_TRUE(catalogue->metric.empty());

  const auto series = parse_request(
      "{\"verb\":\"query\",\"metric\":\"svc.request_ms.p99\","
      "\"last_s\":60,\"max_samples\":32}",
      &error, &code);
  ASSERT_TRUE(series.has_value()) << error;
  EXPECT_EQ(series->metric, "svc.request_ms.p99");
  EXPECT_EQ(series->last_s, 60.0);
  EXPECT_EQ(series->max_samples, 32);

  obs::reset_timeseries();
  obs::timeseries_record("test.proto.series", 1000, 1.5);
  obs::timeseries_record("test.proto.series", 2000, 2.5);

  // Catalogue mode: one row per series with count + latest sample.
  const auto list_doc = obs::json_parse(query_line(*catalogue));
  ASSERT_TRUE(list_doc.has_value());
  EXPECT_EQ(list_doc->get_number("count"), 1.0);
  const obs::JsonValue* rows = list_doc->get("series");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_EQ(rows->array[0].get_string("metric"), "test.proto.series");
  EXPECT_EQ(rows->array[0].get_number("count"), 2.0);
  EXPECT_EQ(rows->array[0].get_number("last"), 2.5);
  EXPECT_EQ(rows->array[0].get_number("last_unix_ms"), 2000.0);

  // Series mode: chronological [unix_ms, value] pairs.
  Request q;
  q.verb = Request::Verb::kQuery;
  q.metric = "test.proto.series";
  const auto doc = obs::json_parse(query_line(q));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("metric"), "test.proto.series");
  EXPECT_EQ(doc->get_number("count"), 2.0);
  const obs::JsonValue* samples = doc->get("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->array.size(), 2u);
  ASSERT_EQ(samples->array[1].array.size(), 2u);
  EXPECT_EQ(samples->array[0].array[0].number, 1000.0);
  EXPECT_EQ(samples->array[0].array[1].number, 1.5);
  EXPECT_EQ(samples->array[1].array[0].number, 2000.0);
  EXPECT_EQ(samples->array[1].array[1].number, 2.5);

  // Unknown series: ok with an empty sample list, not an error.
  q.metric = "no.such.series";
  const auto empty_doc = obs::json_parse(query_line(q));
  ASSERT_TRUE(empty_doc.has_value());
  EXPECT_EQ(empty_doc->get_number("count"), 0.0);
}

TEST(Server, QueryVerbServesSeriesEndToEnd) {
  obs::reset_timeseries();
  ServerOptions options;
  options.scheduler = quick_options(1);
  Server server(options);

  JobRequest job;
  job.problem = parse(kSystem);
  job.objective = alloc::Objective::sum_trt();
  // Drive traffic through the scheduler, then sample twice so quantile
  // series exist with >= 2 points (what alloc_top draws).
  const auto id = server.scheduler().submit(job);
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(server.scheduler().wait(*id, 60.0).has_value());
  obs::timeseries_sample_now();
  obs::timeseries_sample_now();

  const auto catalogue = obs::json_parse(
      server.handle_line("{\"verb\":\"query\"}"));
  ASSERT_TRUE(catalogue.has_value());
  ASSERT_NE(catalogue->get("series"), nullptr);
  std::set<std::string> names;
  for (const auto& row : catalogue->get("series")->array) {
    names.insert(*row.get_string("metric"));
  }
  EXPECT_EQ(names.count("svc.request_ms.p99"), 1u);
  EXPECT_EQ(names.count("svc.cache.bytes"), 1u);
  EXPECT_EQ(names.count("sat.arena.bytes"), 1u);

  const auto doc = obs::json_parse(server.handle_line(
      "{\"verb\":\"query\",\"metric\":\"svc.request_ms.p99\","
      "\"last_s\":600}"));
  ASSERT_TRUE(doc.has_value());
  ASSERT_GE(*doc->get_number("count"), 2.0);
  const obs::JsonValue* samples = doc->get("samples");
  ASSERT_NE(samples, nullptr);
  std::int64_t prev = 0;
  for (const auto& pair : samples->array) {
    ASSERT_EQ(pair.array.size(), 2u);
    const auto ms = static_cast<std::int64_t>(pair.array[0].number);
    EXPECT_GE(ms, prev);  // correctly timestamped: chronological
    prev = ms;
  }
  // Timestamps are wall-clock: within ten minutes of "now".
  EXPECT_GT(prev, obs::wall_unix_ms() - 600 * 1000);
}

}  // namespace
}  // namespace optalloc::svc
