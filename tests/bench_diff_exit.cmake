# Exit-code check for tools/bench_diff (driven by ctest, see
# tests/CMakeLists): diff OLD against NEW and require exactly the exit
# status EXPECT. CI treats 1 (regression or cost mismatch) as advisory
# and 2 (usage, missing or unparseable artifact) as fatal, so the test
# pins the exact code rather than "non-zero".
#
# Expects: -DBENCH_DIFF=<path> -DOLD=<artifact> -DNEW=<artifact>
#          -DEXPECT=<exit status>

execute_process(
  COMMAND "${BENCH_DIFF}" "${OLD}" "${NEW}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR
          "bench_diff ${OLD} ${NEW}: expected exit ${EXPECT}, got ${status}:\n"
          "${output}")
endif()
message(STATUS "bench_diff exited ${status} as expected")
