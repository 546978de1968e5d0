// Must NOT compile: a metric's kind is part of its id's type, so add()
// (counters only) on a histogram id is rejected instead of writing a slot
// the histogram is never read from.
#include "obs/metrics.hpp"

void negative_compile_add_on_histogram() {
  optalloc::obs::add(optalloc::obs::m::svc_request_ms, 1);
}
