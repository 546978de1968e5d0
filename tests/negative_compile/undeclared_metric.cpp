// Must NOT compile: a metric is a row of src/obs/metrics.def, spelled
// obs::m::<id>; a metric without a row does not exist.
#include "obs/metrics.hpp"

void negative_compile_undeclared_metric() {
  optalloc::obs::add(optalloc::obs::m::rogue_metric);
}
