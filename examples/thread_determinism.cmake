# Thread-count determinism check: run the quickstart tune at 1 and at 4
# worker threads and fail on any byte difference in stdout.
#
#   cmake -DQUICKSTART=<path to quickstart> -P thread_determinism.cmake

if(NOT QUICKSTART)
  message(FATAL_ERROR "pass -DQUICKSTART=<path to the quickstart binary>")
endif()

foreach(threads 1 4)
  execute_process(
    COMMAND "${QUICKSTART}" --benchmark=convolution "--device=Nvidia K40"
            --threads ${threads}
    OUTPUT_VARIABLE out_${threads}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickstart --threads ${threads} exited with ${rc}")
  endif()
endforeach()

if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "quickstart output differs between --threads 1 and "
                      "--threads 4:\n--- threads 1\n${out_1}\n"
                      "--- threads 4\n${out_4}")
endif()
message(STATUS "quickstart output identical at 1 and 4 threads")
