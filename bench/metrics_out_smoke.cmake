# ctest script for bench_smoke_metrics_out: runs a bench with the
# `--metrics-out=<path>` spelling and fails unless it exits 0 and leaves a
# JSON report at <path> whose fleet cycle counter is non-zero (so the flag
# really switched instrumentation on). Then runs it with a dangling
# `--metrics-out` (no path) and fails unless that exits 2 with an
# `error:` message rather than aborting.
#
#   cmake -DBENCH=<bench binary> -DOUT=<report path> -P metrics_out_smoke.cmake
file(REMOVE "${OUT}")
execute_process(COMMAND "${BENCH}" hi=100 "--metrics-out=${OUT}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --metrics-out=${OUT} exited with ${rc}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "no metrics report at ${OUT}")
endif()
file(READ "${OUT}" report)
string(JSON cycles ERROR_VARIABLE err GET "${report}" counters
       core.fleet.cycles)
if(err OR cycles LESS_EQUAL 0)
  message(FATAL_ERROR "report ${OUT} has no fleet cycles: ${err}")
endif()
message(STATUS "metrics report ${OUT}: ${cycles} fleet cycles")

execute_process(COMMAND "${BENCH}" hi=100 --metrics-out
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "^error: ")
  message(FATAL_ERROR
          "${BENCH} with a dangling --metrics-out exited with ${rc}: ${err}")
endif()
message(STATUS "dangling --metrics-out rejected: ${err}")
