# Drives simtest_sweep end to end with a planted mutation that fails
# every seed, and checks --keep-going against the default stop-at-first
# behaviour: every seed runs, each failing seed gets its own repro
# file, the summary names the seeds and counts the failure kinds, and
# the exit status is 1.
#
# Variables: SWEEP (binary path), WORK_DIR (scratch directory, emptied
# first).
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_sweep out_var rc_var)
  execute_process(
    COMMAND "${SWEEP}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
endfunction()

# --keep-going: all three seeds fail, all three are reported.
run_sweep(out rc --seeds 3 --mutation forge_tokens --keep-going
          --out "${WORK_DIR}/repro.json")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--keep-going sweep exited ${rc}, want 1\n${out}")
endif()
if(NOT out MATCHES "3 of 3 seeds failed: 1 2 3\n")
  message(FATAL_ERROR "missing failing-seed list\n${out}")
endif()
if(NOT out MATCHES "failure kinds \\(seeds showing each\\):.* shard0\\.token_conservation=3")
  message(FATAL_ERROR "missing per-kind count\n${out}")
endif()
foreach(seed 1 2 3)
  if(NOT EXISTS "${WORK_DIR}/repro_${seed}.json")
    message(FATAL_ERROR "no repro file for seed ${seed}")
  endif()
endforeach()
if(EXISTS "${WORK_DIR}/repro.json")
  message(FATAL_ERROR "--keep-going wrote the unsuffixed --out path")
endif()

# Default: stops at seed 1, one repro at --out, no summary.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
run_sweep(out rc --seeds 3 --mutation forge_tokens
          --out "${WORK_DIR}/repro.json")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "default sweep exited ${rc}, want 1\n${out}")
endif()
if(NOT EXISTS "${WORK_DIR}/repro.json")
  message(FATAL_ERROR "default sweep wrote no repro")
endif()
if(out MATCHES "seeds failed")
  message(FATAL_ERROR "default sweep printed a summary\n${out}")
endif()

# --keep-going on a clean sweep: same ending as without it.
run_sweep(out rc --seeds 2 --keep-going)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean --keep-going sweep exited ${rc}\n${out}")
endif()
if(NOT out MATCHES "\n2 seeds passed\n$")
  message(FATAL_ERROR "clean --keep-going sweep summary\n${out}")
endif()
