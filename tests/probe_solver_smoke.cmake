# Runs `insched_probe solver 200 1` (the three case-study staircases at
# steps=200 with the full cut stack) and fails unless it exits 0 and prints
# a value line for every row of the kMipCounterFields table. The names are
# read from the table itself, so a new counter is checked without an edit
# here.
#
#   cmake -DPROBE=<insched_probe> -DFIELDS_HEADER=<mip/branch_and_bound.hpp>
#         -P probe_solver_smoke.cmake

execute_process(COMMAND "${PROBE}" solver 200 1
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "insched_probe solver exited ${rc}\n${out}\n${err}")
endif()

file(STRINGS "${FIELDS_HEADER}" rows REGEX "^ *\\{\"[a-z_]+\", &MipCounters::")
list(LENGTH rows row_count)
if(row_count EQUAL 0)
  message(FATAL_ERROR "no kMipCounterFields rows found in ${FIELDS_HEADER}")
endif()
foreach(row IN LISTS rows)
  string(REGEX MATCH "\"([a-z_]+)\"" quoted "${row}")
  set(name "${CMAKE_MATCH_1}")
  if(NOT out MATCHES "\n    ${name} +-?[0-9]+\n")
    message(FATAL_ERROR "insched_probe solver printed no value for '${name}'\n${out}")
  endif()
endforeach()
message(STATUS "insched_probe solver printed all ${row_count} counter fields")
