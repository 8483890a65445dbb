# Golden-output check: run a bench binary and require its stdout to equal
# a committed golden file byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt>
#         -P compare.cmake
#
# On a mismatch the actual stdout is left in ACTUAL and the command that
# re-blesses the golden file is printed.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR
    "stdout of ${BENCH} differs from ${GOLDEN}\n"
    "  compare: diff ${GOLDEN} ${ACTUAL}\n"
    "  if the change is intended, re-bless with:\n"
    "    ${BENCH} > ${GOLDEN}")
endif()
