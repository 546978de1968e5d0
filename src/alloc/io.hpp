#pragma once
// Text format for allocation problems, so systems can be described in
// files and fed to the CLI allocator. Line-oriented, '#' comments:
//
//   system 8                       # number of ECUs
//   memory 0 100                   # ECU 0 has a 100-unit memory budget
//   gateway_only 8                 # ECU 8 hosts no tasks
//   medium ring0 token_ring ecus=0,1,2,3 slot_min=1 slot_max=12
//          byte_ticks=1 gateway_cost=5     (one line in a real file)
//   medium can0 can ecus=2,3 bit_ticks=1 bits_per_tick=25
//   task sensor period=100 deadline=40 jitter=0 memory=4 wcet=8,10,-,12
//   message sensor -> control bytes=4 deadline=50 jitter=0
//   separate control actuator
//
// WCET entries are per-ECU in order; '-' marks a forbidden placement.
// Tasks are referenced by name; order of sections is free except that
// `system` must precede everything and names must be declared before use.

#include <iosfwd>
#include <string>
#include <string_view>

#include "alloc/problem.hpp"

namespace optalloc::alloc {

/// Largest `system` ECU count parse_problem accepts: far above any
/// architecture the paper or the generators describe (tens of ECUs), and
/// small enough that the per-ECU vectors it sizes stay tiny.
constexpr int kMaxEcus = 1024;

/// Parse a problem description. Throws std::runtime_error on malformed
/// input; the message names the source (`source`, e.g. the file name —
/// pass "<stdin>" for piped input) and the offending line number.
Problem parse_problem(std::istream& in,
                      std::string_view source = "problem file");

/// Serialize a problem in the same format (round-trips through
/// parse_problem).
void write_problem(std::ostream& out, const Problem& problem);

/// Parse an objective spec: "feasibility", "trt:<medium>", "sum-trt",
/// "can-load:<medium>", "max-util". Throws std::runtime_error on an
/// unknown spec.
Objective parse_objective(const std::string& spec);

}  // namespace optalloc::alloc
