# Negative-compile harness for API misuse the type system must reject
# (run via `cmake -P`, registered as the `negative_compile_api` ctest in
# tests/CMakeLists.txt). Uses the build's own C++ compiler, so it runs
# with g++ and with clang alike.
#
# The positive control must compile; each violation TU must be REJECTED
# with the diagnostic its case names (any other failure — a missing
# header, a syntax error — still fails the harness, so a broken include
# path cannot masquerade as a passing rejection).
#
# Inputs: -DCXX=<compiler> -DSRC_DIR=<repo>/src -DCASE_DIR=<this directory>

set(flags -std=c++20 -fsyntax-only -I${SRC_DIR})

function(try_case tu expect_regex)
  execute_process(
      COMMAND ${CXX} ${flags} ${CASE_DIR}/${tu}
      RESULT_VARIABLE rc
      ERROR_VARIABLE err
      OUTPUT_VARIABLE out)
  if(expect_regex STREQUAL "")
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
          "positive control ${tu} failed to compile (rc=${rc}):\n${err}")
    endif()
    message(STATUS "${tu}: compiles clean (positive control)")
    return()
  endif()
  if(rc EQUAL 0)
    message(FATAL_ERROR "${tu} compiled successfully but must be rejected")
  endif()
  if(NOT err MATCHES "${expect_regex}")
    message(FATAL_ERROR
        "${tu} failed for the wrong reason (no diagnostic matching "
        "\"${expect_regex}\", rc=${rc}):\n${err}")
  endif()
  message(STATUS "${tu}: rejected, as required")
endfunction()

try_case(api_positive_control.cpp "")
# g++: "no matching function for call to ...Event(const char [N])";
# clang: "no matching constructor for initialization of ...Event".
try_case(undeclared_event.cpp "no matching (function|constructor)")
# g++: "'rogue_metric' is not a member of ..."; clang: "no member named
# 'rogue_metric' in namespace ...".
try_case(undeclared_metric.cpp "rogue_metric")
# g++: "could not convert ... MetricId<...kHistogram>"; clang: "no matching
# function for call to 'add'".
try_case(add_on_histogram.cpp "(could not convert|no matching function)")
# g++: "use of deleted function"; clang: "call to deleted constructor".
try_case(encoder_temporary_problem.cpp "deleted")
try_case(certifier_temporary_problem.cpp "deleted")
