# Example-program check (registered as the example_* ctests by
# CMakeLists): run one example with small arguments and fail unless it
# exits 0 and prints the expected line on stdout.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" "-DEXPECT=<regex>" \
#         -P run_example.cmake

if(NOT DEFINED EXE OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "run_example: pass -DEXE=<binary> -DEXPECT=<regex>")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message(STATUS "${out}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "run_example: ${EXE} ${ARGS} failed (${code}): ${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "run_example: ${EXE} ${ARGS} printed no '${EXPECT}'")
endif()
