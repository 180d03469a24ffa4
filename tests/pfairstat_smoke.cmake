# End-to-end smoke for the pfairstat CLI: produce two profiled metrics
# dumps with pfairsim, then show/diff them, and check the --fail-above
# budget on a synthetic regression.  Invoked from tests/CMakeLists.txt
# with -DPFAIRSIM=... -DPFAIRSTAT=....
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
  endif()
endfunction()

set(sfq "${CMAKE_CURRENT_BINARY_DIR}/pfairstat_smoke_sfq.json")
set(dvq "${CMAKE_CURRENT_BINARY_DIR}/pfairstat_smoke_dvq.json")

run(${PFAIRSIM} --demo=fig6 --profile --quiet --metrics=${sfq})
run(${PFAIRSIM} --demo=fig6 --model=dvq --profile --quiet --metrics=${dvq})
run(${PFAIRSTAT} show ${sfq})
run(${PFAIRSTAT} diff ${sfq} ${dvq})
# A file diffed against itself has zero regression, so any budget passes.
run(${PFAIRSTAT} diff ${sfq} ${sfq} --fail-above=0)

# Synthetic 100% regression in one phase: the budget must trip (exit 1)
# and the report must blame the phase that moved.
set(base "${CMAKE_CURRENT_BINARY_DIR}/pfairstat_smoke_base.json")
set(cur "${CMAKE_CURRENT_BINARY_DIR}/pfairstat_smoke_cur.json")
file(WRITE ${base} "{\"phases\": {\"simulate\": {\"count\": 1, \"total_ns\": 1000, \"self_ns\": 1000}, \"render\": {\"count\": 1, \"total_ns\": 500, \"self_ns\": 500}}}")
file(WRITE ${cur} "{\"phases\": {\"simulate\": {\"count\": 1, \"total_ns\": 2000, \"self_ns\": 2000}, \"render\": {\"count\": 1, \"total_ns\": 500, \"self_ns\": 500}}}")
execute_process(COMMAND ${PFAIRSTAT} diff ${base} ${cur} --fail-above=15
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "pfairstat missed a 66% attributed regression")
endif()
if(NOT out MATCHES "largest mover: simulate")
  message(FATAL_ERROR "pfairstat did not blame the moved phase: ${out}")
endif()

# Malformed JSON is an input error: exit 2 with the positioned message
# alone.
set(bad "${CMAKE_CURRENT_BINARY_DIR}/pfairstat_smoke_bad.json")
file(WRITE ${bad} "{\"phases\": {\"simulate\": \"\\q\"}}")
execute_process(COMMAND ${PFAIRSTAT} show ${bad}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "pfairstat exited ${rc} on malformed JSON")
endif()
if(NOT err MATCHES "bad escape" OR err MATCHES "precondition failed" OR
   err MATCHES "\\.cpp:")
  message(FATAL_ERROR "pfairstat's input error is not clean: ${err}")
endif()
