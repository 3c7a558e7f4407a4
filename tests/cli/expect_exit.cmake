# Runs a command and fails unless it exits with exactly EXPECT_CODE.
# A crash or a silent success both fail the test.
#
#   cmake -DEXPECT_CODE=2 -DCMD="prog;--flag=value" -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR
          "expected exit ${EXPECT_CODE}, got '${code}': ${CMD}\n${err}")
endif()
