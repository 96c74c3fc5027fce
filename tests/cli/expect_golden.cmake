# Script-mode golden check for a tool's output file: run one command that
# writes OUT, require exit code 0, then require OUT to equal GOLDEN byte
# for byte.
#
# Usage:
#   cmake -DOUT=<file> -DGOLDEN=<file> -P expect_golden.cmake -- <program> [args...]
foreach(_var OUT GOLDEN)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "expect_golden.cmake: ${_var} is required")
  endif()
endforeach()

set(_cmd "")
set(_collect OFF)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE ${_last})
  if(_collect)
    list(APPEND _cmd "${CMAKE_ARGV${_i}}")
  elseif(CMAKE_ARGV${_i} STREQUAL "--")
    set(_collect ON)
  endif()
endforeach()
if(NOT _cmd)
  message(FATAL_ERROR "expect_golden.cmake: no command after --")
endif()

file(REMOVE "${OUT}")
execute_process(COMMAND ${_cmd} RESULT_VARIABLE _rc ERROR_VARIABLE _err
                OUTPUT_QUIET)
if(NOT _rc STREQUAL "0")
  message(FATAL_ERROR "exit code '${_rc}' from: ${_cmd}\n${_err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE _diff)
if(NOT _diff STREQUAL "0")
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
message(STATUS "ok: ${OUT} matches ${GOLDEN}")
