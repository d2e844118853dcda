# Runs PROGRAM with the optional space-separated ARGS and compares its stdout
# with EXPECTED byte for byte (used by the paper_output_* and pdcsched_output_*
# ctests). The sweep width is pinned to 2 threads because the figure headers
# print it; the simulated numbers do not depend on it.
#
#   cmake -DPROGRAM=<exe> [-DARGS="<arg> ..."] -DEXPECTED=<file> -DOUTPUT=<file>
#         -P paper_output.cmake
set(ENV{PDC_SWEEP_THREADS} 2)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} OUTPUT_FILE "${OUTPUT}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUTPUT}" "${EXPECTED}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}")
endif()
