# Runs ddbs_sim through a crash/recover cycle with every observability
# output on, then feeds each file to ddbs_trace.py. Fails on the first
# non-zero exit.
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
