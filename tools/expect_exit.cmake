# Runs focus_asm with one flag set to one value and fails unless it exits
# with EXPECT_EXIT and its stderr matches EXPECT_STDERR:
#
#   cmake -DFOCUS_ASM=<binary> -DFLAG=<flag> -DVALUE=<value> -DEXPECT_EXIT=2
#         -DEXPECT_STDERR=<regex> -P expect_exit.cmake
#
# The input path does not exist, so a run that gets past argument parsing
# exits 1 on the missing file instead of assembling anything.
execute_process(
  COMMAND "${FOCUS_ASM}" -i "${CMAKE_CURRENT_BINARY_DIR}/no-such-input.fastq"
          -o "${CMAKE_CURRENT_BINARY_DIR}/expect_exit_out" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "${FLAG} ${VALUE}: exit status ${status}, expected ${EXPECT_EXIT}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "${FLAG} ${VALUE}: stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
