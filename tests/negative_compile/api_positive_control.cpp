// Positive control for the API negative-compile harness: the legal
// forms of what the violation TUs get wrong — a declared event kind, and
// an encoder and a certifier built over a problem that outlives them.
// Must compile clean; otherwise the harness would be "proving" rejection
// with a broken include path.
#include "alloc/certify.hpp"
#include "alloc/encoder.hpp"
#include "obs/events.hpp"

namespace {

void emit_declared() {
  optalloc::obs::Event(optalloc::obs::ev::solve).num("call", 1);
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
