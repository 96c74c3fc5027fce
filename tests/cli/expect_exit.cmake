# Script-mode exit-code check for the command-line tools: run one command
# and require it to exit with EXACTLY the expected code and to print a
# line matching STDERR (default: the usage line) on stderr. ctest's
# WILL_FAIL cannot pin the code: it passes on any failure, a crash
# included.
#
# Usage:
#   cmake -DCODE=<n> [-DSTDERR=<regex>] -P expect_exit.cmake -- <program> [args...]
if(NOT DEFINED CODE)
  message(FATAL_ERROR "expect_exit.cmake: CODE is required")
endif()
if(NOT DEFINED STDERR)
  set(STDERR "usage: ")
endif()

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
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(
  COMMAND ${_cmd}
  RESULT_VARIABLE _rc
  OUTPUT_VARIABLE _out
  ERROR_VARIABLE _err)

if(NOT _rc STREQUAL "${CODE}")
  message(FATAL_ERROR
          "expected exit code ${CODE}, got '${_rc}' from: ${_cmd}\n${_err}")
endif()
if(NOT _err MATCHES "${STDERR}")
  message(FATAL_ERROR
          "exit code ${CODE} but nothing matching '${STDERR}' on stderr:\n${_err}")
endif()
message(STATUS "ok: exit ${_rc} from: ${_cmd}")
