# End-to-end certification smoke test (driven by ctest, see
# tests/CMakeLists): run allocate_file with --certify on the bundled
# gateway problem, require a certified optimum, then re-verify the dumped
# proof log with the standalone drat_check tool in strict mode. The solver
# logs hints, so the strict check must take the hinted path.
#
# Expects: -DALLOCATE_FILE=<path> -DDRAT_CHECK=<path> -DPROBLEM=<path>
#          -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")
set(proof_file "${WORK_DIR}/certify_smoke.drat")

execute_process(
  COMMAND "${ALLOCATE_FILE}" --certify --proof "${proof_file}" "${PROBLEM}"
  RESULT_VARIABLE allocate_status
  OUTPUT_VARIABLE allocate_output
  ERROR_VARIABLE allocate_output)
if(NOT allocate_status EQUAL 0)
  message(FATAL_ERROR
          "allocate_file --certify failed (${allocate_status}):\n"
          "${allocate_output}")
endif()
if(NOT allocate_output MATCHES "status:[ ]+optimal")
  message(FATAL_ERROR "expected an optimal answer:\n${allocate_output}")
endif()
if(NOT allocate_output MATCHES "certified: true")
  message(FATAL_ERROR "optimum is not certified:\n${allocate_output}")
endif()

execute_process(
  COMMAND "${DRAT_CHECK}" "${proof_file}"
  RESULT_VARIABLE check_status
  OUTPUT_VARIABLE check_output
  ERROR_VARIABLE check_output)
if(NOT check_status EQUAL 0)
  message(FATAL_ERROR
          "drat_check rejected the dumped proof (${check_status}):\n"
          "${check_output}")
endif()
if(NOT check_output MATCHES "VERIFIED")
  message(FATAL_ERROR "drat_check did not verify:\n${check_output}")
endif()
if(NOT check_output MATCHES "hinted: [1-9]")
  message(FATAL_ERROR "the dumped proof carries no hints:\n${check_output}")
endif()
message(STATUS "certified optimum + proof ok:\n${allocate_output}")
