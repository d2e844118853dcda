# Runs pdcevald with malformed --model-version values and checks the CLI
# contract for a bad flag value: exit code 2, the flag named on stderr, and
# no socket left behind (the value is rejected before the daemon binds).
# The timeout turns a daemon that boots anyway into a failure, not a hang.
#
#   cmake -DPROGRAM=<pdcevald> -DSOCKET=<path> -P pdcevald_bad_flag.cmake
foreach(bad abc 12x -1 0x)
  file(REMOVE "${SOCKET}")
  execute_process(COMMAND "${PROGRAM}" --socket "${SOCKET}" --model-version "${bad}"
    RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET TIMEOUT 10)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "pdcevald --model-version ${bad} exited with '${status}', want 2")
  endif()
  if(NOT err MATCHES "bad value for --model-version")
    message(FATAL_ERROR "pdcevald --model-version ${bad}: stderr does not name the flag:\n${err}")
  endif()
  if(EXISTS "${SOCKET}")
    message(FATAL_ERROR "pdcevald --model-version ${bad} left ${SOCKET} behind")
  endif()
endforeach()
