# Checks that focus_asm publishes its four outputs all together or not at
# all:
#
#   cmake -DFOCUS_ASM=<binary> -DWORK_DIR=<dir> [-DCASE=<case>]
#         -P expect_output_failure.cmake
#
# CASE stats_path_is_directory (the default): with <prefix>.stats.txt
# pre-created as a directory, a run that assembles must exit 1 with an error
# naming that file and leave no other <prefix>.* output and no temp file
# behind. With the directory gone, the same run must exit 0 and leave
# exactly the four outputs.
#
# CASE no_coordinator_survives: every rank crashes at its first message op
# (FOCUS_FAULT_SEED=1 FOCUS_FAULT_CRASH=1), so no rank is left to coordinate.
# Under each protocol the run must exit 1 with an error naming the lost
# coordinator and leave no <prefix>.* file at all.
#
# The input is synthetic: 100 bp windows every 15 bp over a fixed-seed
# 3 kbp random genome, with all-'I' qualities.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
string(RANDOM LENGTH 3000 ALPHABET ACGT RANDOM_SEED 7 genome)
string(REPEAT "I" 100 qual)
set(fastq "")
foreach(start RANGE 0 2900 15)
  string(SUBSTRING "${genome}" ${start} 100 read)
  string(APPEND fastq "@r${start}\n${read}\n+\n${qual}\n")
endforeach()
file(WRITE "${WORK_DIR}/reads.fastq" "${fastq}")

set(prefix "${WORK_DIR}/out")
set(outputs contigs.fasta stats.txt graph.gfa partition.tsv)

function(run_focus_asm expect_exit)
  execute_process(
    COMMAND "${FOCUS_ASM}" -i "${WORK_DIR}/reads.fastq" -o "${prefix}"
            -k 4 -r 2
    RESULT_VARIABLE status
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "${expect_exit}")
    message(FATAL_ERROR "exit status ${status}, expected ${expect_exit}\n${err}")
  endif()
  set(err "${err}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "no_coordinator_survives")
  set(ENV{FOCUS_FAULT_SEED} 1)
  set(ENV{FOCUS_FAULT_CRASH} 1)
  foreach(protocol master symmetric)
    set(ENV{FOCUS_DIST_PROTOCOL} ${protocol})
    run_focus_asm(1)
    if(NOT err MATCHES "error: [^\n]*coordinator")
      message(FATAL_ERROR
        "${protocol}: the error does not name the coordinator:\n${err}")
    endif()
    file(GLOB left "${prefix}.*")
    if(left)
      message(FATAL_ERROR "${protocol}: failed run left ${left} behind")
    endif()
  endforeach()
else()
  file(MAKE_DIRECTORY "${prefix}.stats.txt")
  run_focus_asm(1)
  if(NOT err MATCHES "out\\.stats\\.txt")
    message(FATAL_ERROR "the error does not name out.stats.txt:\n${err}")
  endif()
  foreach(name ${outputs})
    if(EXISTS "${prefix}.${name}.tmp")
      message(FATAL_ERROR "failed run left ${prefix}.${name}.tmp behind")
    endif()
    if(NOT name STREQUAL "stats.txt" AND EXISTS "${prefix}.${name}")
      message(FATAL_ERROR "failed run left ${prefix}.${name} behind")
    endif()
  endforeach()

  file(REMOVE_RECURSE "${prefix}.stats.txt")
  run_focus_asm(0)
  foreach(name ${outputs})
    if(NOT EXISTS "${prefix}.${name}" OR IS_DIRECTORY "${prefix}.${name}")
      message(FATAL_ERROR "successful run did not write ${prefix}.${name}")
    endif()
    if(EXISTS "${prefix}.${name}.tmp")
      message(FATAL_ERROR "successful run left ${prefix}.${name}.tmp behind")
    endif()
  endforeach()
endif()
