# Runs a command and fails unless it exits with an exact status and, when
# STDERR_REGEX is given, its stderr matches it. Lets a ctest entry tell an
# expected failure (exit 1, exit 2) apart from a crash or a usage error,
# which a plain WILL_FAIL test cannot.
#
#   cmake -DEXIT=2 [-DSTDERR_REGEX=...] -P expect_exit.cmake -- CMD ARGS...
set(cmd "")
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXIT)
  message(FATAL_ERROR "usage: cmake -DEXIT=N -P expect_exit.cmake -- CMD...")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${rc}, want ${EXIT}\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
