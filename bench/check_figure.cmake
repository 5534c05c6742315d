# Rerun one figure harness and compare its stdout with the pinned
# golden byte for byte (the `figures` ctest label):
#   cmake -DHARNESS=<binary> -DARGS="<key=value ...>" -DGOLDEN=<file>
#         -DOUTPUT=<file> -P check_figure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
execute_process(COMMAND "${HARNESS}" ${args}
    OUTPUT_FILE "${OUTPUT}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${HARNESS} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND cmp "${OUTPUT}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "figure output changed; inspect with: diff ${GOLDEN} ${OUTPUT}")
endif()
