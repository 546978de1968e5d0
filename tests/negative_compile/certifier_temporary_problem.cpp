// Must NOT compile: Certifier keeps a reference to its Problem, so it
// cannot be built from a temporary either.
#include "alloc/certify.hpp"

optalloc::alloc::Problem make_problem();

void negative_compile_certifier_temporary_problem(
    optalloc::alloc::Objective objective,
    optalloc::alloc::OptimizeResult& result) {
  optalloc::alloc::Certifier cert(make_problem(), objective, true, result);
  cert.allocation();
}
