# Chaos sweep through the CLI: randomized fault schedules must never flip a
# verdict (exit 0), and the sweep's JSON report must be byte-identical at 1
# and 4 pool threads. The failpoint hit counters are process-wide, so an
# nth-hit schedule fires on the same call only when no loop on the chaos
# path fans its work across threads.
#
# Run as: cmake -DCRSAT_CLI=<binary> -P this-file

if(NOT DEFINED CRSAT_CLI)
  message(FATAL_ERROR "pass -DCRSAT_CLI=...")
endif()

foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CRSAT_THREADS=${threads}
      ${CRSAT_CLI} conform --chaos-seeds 25 --json
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE report_${threads})
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
      "conform --chaos-seeds 25 at CRSAT_THREADS=${threads} exited "
      "${exit_code}:\n${report_${threads}}")
  endif()
endforeach()

if(NOT report_1 STREQUAL report_4)
  message(FATAL_ERROR
    "chaos report differs between CRSAT_THREADS=1 and 4:\n"
    "--- 1 thread ---\n${report_1}\n--- 4 threads ---\n${report_4}")
endif()
