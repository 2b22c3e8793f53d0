# Runs BIN with the space-separated ARGS and fails unless it exits with
# status 2 and prints MESSAGE on stderr: the CLIs' contract for input they
# refuse. Invoked by the *_rejects_* tests in tests/CMakeLists.txt:
#   cmake -DBIN=path -DARGS="--n 0" -DMESSAGE="text" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                TIMEOUT 20)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status '${status}', want 2; stderr:\n${stderr}")
endif()
string(FIND "${stderr}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${MESSAGE}':\n${stderr}")
endif()
