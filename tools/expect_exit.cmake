# Runs COMMAND with the single argument ARG (or, when ARGS is set, with the
# arguments of the command line ARGS, split like a POSIX shell splits them)
# and requires exit status EXPECT_EXIT and combined stdout/stderr matching
# the regex EXPECT_OUTPUT.
# Usage: cmake -DCOMMAND=<exe> -DARG=<arg> -DEXPECT_EXIT=<n>
#              -DEXPECT_OUTPUT=<regex> -P expect_exit.cmake
#        cmake -DCOMMAND=<exe> "-DARGS=<arg> <arg> ..." ... -P expect_exit.cmake
if(DEFINED ARGS)
  separate_arguments(command_args UNIX_COMMAND "${ARGS}")
else()
  set(command_args "${ARG}")
endif()
execute_process(COMMAND ${COMMAND} ${command_args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${status}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n${out}${err}")
endif()
