// Positive control for the API negative-compile harness: the legal
// forms of what the violation TUs get wrong — a declared event kind, a
// declared metric written through its own kind, and an encoder and a
// certifier built over a problem that outlives them.
// Must compile clean; otherwise the harness would be "proving" rejection
// with a broken include path.
#include "alloc/certify.hpp"
#include "alloc/encoder.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace {

void emit_declared() {
  optalloc::obs::Event(optalloc::obs::ev::solve).num("call", 1);
  optalloc::obs::add(optalloc::obs::m::svc_requests, 1);
  optalloc::obs::observe(optalloc::obs::m::svc_request_ms, 1.0);
}

void encode_lvalue(const optalloc::alloc::Problem& problem,
                   optalloc::alloc::Objective objective,
                   optalloc::alloc::OptimizeResult& result) {
  optalloc::alloc::AllocEncoder enc(problem, objective);
  optalloc::alloc::Certifier cert(problem, objective, false, result);
  (void)enc;
  (void)cert;
}

}  // namespace

void negative_compile_api_positive_control(
    const optalloc::alloc::Problem& problem,
    optalloc::alloc::Objective objective,
    optalloc::alloc::OptimizeResult& result) {
  emit_declared();
  encode_lvalue(problem, objective, result);
}
