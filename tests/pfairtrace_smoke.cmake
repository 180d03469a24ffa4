# End-to-end smoke for the pfairtrace CLI: simulate, then validate /
# stats / diff / chrome against the produced artifacts.  Invoked from
# tests/CMakeLists.txt with -DPFAIRSIM=... -DPFAIRTRACE=....
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
  endif()
endfunction()

set(trace "${CMAKE_CURRENT_BINARY_DIR}/pfairtrace_smoke.jsonl")
set(metrics "${CMAKE_CURRENT_BINARY_DIR}/pfairtrace_smoke_metrics.json")
set(chrome "${CMAKE_CURRENT_BINARY_DIR}/pfairtrace_smoke_chrome.json")

run(${PFAIRSIM} --demo=fig6 --quiet --trace=${trace} --metrics=${metrics})
run(${PFAIRTRACE} validate --demo=fig6 ${trace})
run(${PFAIRTRACE} stats --metrics=${metrics} --trace=${trace})
run(${PFAIRTRACE} diff ${trace} ${trace})
run(${PFAIRTRACE} chrome --demo=fig6 ${trace} --out=${chrome})

# diff against a different run must exit nonzero.
set(trace2 "${CMAKE_CURRENT_BINARY_DIR}/pfairtrace_smoke2.jsonl")
run(${PFAIRSIM} --demo=fig6 --model=dvq --quiet --trace=${trace2})
execute_process(COMMAND ${PFAIRTRACE} diff ${trace} ${trace2}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "pfairtrace diff reported differing traces as equal")
endif()

# A truncated JSONL line is an input error: exit 2 with the line-numbered
# message alone.
set(bad "${CMAKE_CURRENT_BINARY_DIR}/pfairtrace_smoke_truncated.jsonl")
file(WRITE ${bad} "{\"k\": \"place\", \"t\":")
execute_process(COMMAND ${PFAIRTRACE} validate --demo=fig6 ${bad}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "pfairtrace exited ${rc} on a truncated trace")
endif()
if(NOT err MATCHES "trace line 1: unexpected end of JSON input" OR
   err MATCHES "precondition failed" OR err MATCHES "\\.cpp:")
  message(FATAL_ERROR "pfairtrace's input error is not clean: ${err}")
endif()
