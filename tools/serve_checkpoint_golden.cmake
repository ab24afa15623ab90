# Checkpoint bytes are a compatibility contract (docs/ROBUSTNESS.md):
# retake the two committed checkpoints under tests/data/golden — one per
# estimator backend — and require byte equality with a fresh run.
set(dir ${CMAKE_CURRENT_BINARY_DIR}/serve-checkpoint-golden)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

foreach(backend exact shared_bitmap)
  set(extra)
  if(backend STREQUAL "shared_bitmap")
    set(extra --estimator shared_bitmap --block-hosts 64)
  endif()
  execute_process(COMMAND ${DQCTL} serve --synthetic --flows 20000
                          --hosts 512 --shards 2 --stop-after 12000 ${extra}
                          --checkpoint-out ${dir}/${backend}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${backend} checkpointing serve failed: ${rc}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${dir}/${backend}.json
                          ${GOLDEN_DIR}/checkpoint_${backend}.json
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${dir}/${backend}.json differs from "
                        "${GOLDEN_DIR}/checkpoint_${backend}.json")
  endif()
endforeach()
