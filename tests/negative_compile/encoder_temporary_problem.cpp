// Must NOT compile: AllocEncoder keeps a reference to its Problem, so
// building one from a temporary would leave build() reading freed memory.
#include "alloc/encoder.hpp"

optalloc::alloc::Problem make_problem();

void negative_compile_encoder_temporary_problem(
    optalloc::alloc::Objective objective) {
  optalloc::alloc::AllocEncoder enc(make_problem(), objective);
  enc.build();
}
