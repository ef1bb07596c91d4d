# ctest script for bench_smoke_metrics_out: runs a bench with the
# `--metrics-out=<path>` spelling and fails unless it exits 0 and leaves a
# JSON report at <path> whose fleet cycle counter is non-zero (so the flag
# really switched instrumentation on).
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
