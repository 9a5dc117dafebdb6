# Byte-exact CLI regression runner (ctest -P script).
#
# Runs the CLI and compares its stdout, byte for byte, against an
# expected side: a checked-in golden file, or the stdout of a second CLI
# run. The golden mode guards the promise that campaign and Gantt output
# with metrics disabled is identical to the pre-subsystem CLI; the pair
# mode guards the determinism contracts (same output at any --jobs, with
# checkpointing or the reduction layer on or off).
#
# Expected -D definitions:
#   CLI         path to the tocttou binary
#   ARGS        ;-separated CLI argument list
#   OK_CODES    ;-separated acceptable exit codes (the CLI exits 2 when
#               the simulated attack fails — expected on some testbeds)
#   GOLDEN      (golden mode) path to the expected-stdout file
#   EXPECT_ARGS (pair mode) ;-separated argument list of the second run,
#               whose output is the expected side
#   OUT_FILE    (optional) a file the CLI writes (e.g. --detect=csv:FILE);
#               when set, THAT file is compared instead of stdout — the
#               detector-CSV checks pin the artifact, not the chatter
#               around it
#   EXPECT_OUT_FILE (pair mode with OUT_FILE) the file the second run
#               writes
#
# With neither GOLDEN nor EXPECT_ARGS, only the exit code is checked.
# On a golden mismatch the actual output is left in the build tree
# (<name>.actual) for inspection/refresh.

# Runs the CLI with the given arguments, checks its exit code, and sets
# ${out_var} to its stdout (or to the contents of `out_file` if given).
function(run_cli out_var args out_file)
  if(out_file)
    file(REMOVE "${out_file}")
  endif()
  execute_process(
    COMMAND ${CLI} ${args}
    OUTPUT_VARIABLE output
    RESULT_VARIABLE code)
  list(FIND OK_CODES "${code}" code_idx)
  if(code_idx EQUAL -1)
    message(FATAL_ERROR
            "run exited ${code} (accepted: ${OK_CODES}): ${CLI} ${args}")
  endif()
  if(out_file)
    if(NOT EXISTS "${out_file}")
      message(FATAL_ERROR "run did not write ${out_file}: ${CLI} ${args}")
    endif()
    file(READ "${out_file}" output)
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

run_cli(actual "${ARGS}" "${OUT_FILE}")

if(GOLDEN)
  file(READ "${GOLDEN}" expected)
  if(NOT actual STREQUAL expected)
    get_filename_component(name "${GOLDEN}" NAME_WE)
    file(WRITE "${name}.actual" "${actual}")
    message(FATAL_ERROR
            "output differs from ${GOLDEN}\n"
            "actual saved to ${name}.actual -- if the change is intended, "
            "refresh the golden file with that content")
  endif()
elseif(EXPECT_ARGS)
  run_cli(expected "${EXPECT_ARGS}" "${EXPECT_OUT_FILE}")
  if(NOT actual STREQUAL expected)
    list(JOIN ARGS " " first)
    list(JOIN EXPECT_ARGS " " second)
    message(FATAL_ERROR
            "outputs differ\n"
            "run 1: ${CLI} ${first}\n${actual}\n"
            "run 2: ${CLI} ${second}\n${expected}")
  endif()
endif()
