# Runs `${SIM} ${FLAG} ${VALUE}` and passes only if the command exits
# nonzero AND its stderr names the flag in an `error:` line. CTest's
# PASS_REGULAR_EXPRESSION ignores the exit code, hence this wrapper.
#
#   cmake -DSIM=path/to/asap_sim -DFLAG=--jobs -DVALUE=-1 -P expect_cli_error.cmake
execute_process(COMMAND "${SIM}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected a nonzero exit, got 0")
endif()
string(FIND "${err}" "error: " at_error)
string(FIND "${err}" "${FLAG}" at_flag)
if(at_error EQUAL -1 OR at_flag LESS at_error)
  message(FATAL_ERROR
          "${FLAG} ${VALUE}: stderr does not name the flag in an error:\n${err}")
endif()
message(STATUS "${FLAG} ${VALUE}: exit ${rc}: ${err}")
