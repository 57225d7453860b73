# Runs ddbs_sim through a crash/recover cycle with every observability
# output on, then feeds each file to ddbs_trace.py. Fails on the first
# non-zero exit. Last, pipes ddbs_trace.py into a reader that exits without
# reading: the tool must stop quietly (status 0, no traceback).
#
#   cmake -DSIM=... -DPYTHON=... -DTRACE_PY=... -DOUT=dir -P trace_pipeline.cmake
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "exit status ${rc}: ${shown}\n${err}")
  endif()
endfunction()

file(MAKE_DIRECTORY "${OUT}")
run("${SIM}" --sites=4 --items=60 --duration-ms=2000
    --crash=2@400 --recover=2@1200
    "--report-out=${OUT}/report.json" "--spans-out=${OUT}/spans.json"
    "--telemetry-out=${OUT}/telemetry.jsonl")
run("${PYTHON}" "${TRACE_PY}" "${OUT}/report.json")
run("${PYTHON}" "${TRACE_PY}" "${OUT}/spans.json")
run("${PYTHON}" "${TRACE_PY}" "${OUT}/telemetry.jsonl" --tail 8)

# `ddbs_trace.py spans.json | head`, with a reader that is gone before the
# tool writes anything.
execute_process(COMMAND "${PYTHON}" "${TRACE_PY}" "${OUT}/spans.json"
                COMMAND "${CMAKE_COMMAND}" -E true
                RESULTS_VARIABLE rcs ERROR_VARIABLE err)
list(GET rcs 0 rc)
if(NOT rc EQUAL 0 OR err MATCHES "Traceback")
  message(FATAL_ERROR "ddbs_trace.py into a closed pipe: exit status "
                      "${rc}\n${err}")
endif()
