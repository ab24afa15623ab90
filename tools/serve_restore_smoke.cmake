# Crash-safe serve smoke (docs/ROBUSTNESS.md): checkpoint a synthetic
# run mid-stream with --stop-after, restore it at a different shard
# count, and require prefix + resumed decisions to be byte-identical to
# an uninterrupted run. Also checks that checkpoint bytes are
# shard-count invariant and that restoring a corrupt checkpoint fails
# with a diagnostic, not a crash or a silent fresh start.
#
# EXTRA_ARGS (one space-separated string) is appended to every serve
# command, e.g. "--estimator shared_bitmap --block-hosts 64" for the
# shared-bitmap store; SUFFIX keeps each variant's artifacts apart.
#
# Artifacts stay in ${CMAKE_CURRENT_BINARY_DIR}/serve-restore-smoke${SUFFIX}
# so CI can upload checkpoint.json for inspection.
set(dir ${CMAKE_CURRENT_BINARY_DIR}/serve-restore-smoke${SUFFIX})
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
separate_arguments(extra UNIX_COMMAND "${EXTRA_ARGS}")
set(stream --synthetic --flows 20000 --hosts 512 ${extra})

# Uninterrupted reference run.
execute_process(COMMAND ${DQCTL} serve ${stream} --shards 2
                        --out ${dir}/full.ndjson
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted serve failed: ${rc}")
endif()

# Interrupt at flow 12000 (the real SIGTERM path) and checkpoint.
execute_process(COMMAND ${DQCTL} serve ${stream} --shards 2
                        --stop-after 12000
                        --checkpoint-out ${dir}/checkpoint.json
                        --out ${dir}/prefix.ndjson
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing serve failed: ${rc}")
endif()
if(NOT EXISTS ${dir}/checkpoint.json)
  message(FATAL_ERROR "no checkpoint written")
endif()

# Resume at a different shard count.
execute_process(COMMAND ${DQCTL} serve ${stream} --shards 4
                        --restore ${dir}/checkpoint.json
                        --out ${dir}/resume.ndjson
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restored serve failed: ${rc}")
endif()

# prefix-without-summary + resume == full, byte for byte.
file(READ ${dir}/prefix.ndjson prefix)
string(FIND "${prefix}" "{\"summary\"" cut)
if(cut EQUAL -1)
  message(FATAL_ERROR "prefix run is missing its summary line")
endif()
string(SUBSTRING "${prefix}" 0 ${cut} decisions_prefix)
file(READ ${dir}/resume.ndjson resume)
file(READ ${dir}/full.ndjson full)
if(NOT "${decisions_prefix}${resume}" STREQUAL "${full}")
  message(FATAL_ERROR "prefix + restored run differs from the "
                      "uninterrupted stream")
endif()

# Checkpoint bytes are shard-count invariant: retaking the same
# checkpoint at 1 and 4 shards reproduces identical files.
foreach(shards 1 4)
  execute_process(COMMAND ${DQCTL} serve ${stream} --shards ${shards}
                          --stop-after 12000
                          --checkpoint-out ${dir}/ck-${shards}.json
                          --out ${dir}/ignore.ndjson
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "checkpoint at ${shards} shards failed: ${rc}")
  endif()
endforeach()
file(READ ${dir}/ck-1.json ck1)
file(READ ${dir}/ck-4.json ck4)
file(READ ${dir}/checkpoint.json ck2)
if(NOT ck1 STREQUAL ck4)
  message(FATAL_ERROR "checkpoint bytes differ between 1 and 4 shards")
endif()
if(NOT ck1 STREQUAL ck2)
  message(FATAL_ERROR "checkpoint bytes differ between 1 and 2 shards")
endif()

# A truncated checkpoint must be rejected with a diagnostic, exit 1.
string(LENGTH "${ck1}" ck_len)
math(EXPR half "${ck_len} / 2")
string(SUBSTRING "${ck1}" 0 ${half} torn)
file(WRITE ${dir}/torn.json "${torn}")
execute_process(COMMAND ${DQCTL} serve ${stream} --restore ${dir}/torn.json
                        --out ${dir}/never.ndjson
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "restore of a truncated checkpoint succeeded")
endif()
if(NOT err MATCHES "checkpoint")
  message(FATAL_ERROR "truncated-checkpoint diagnostic missing: ${err}")
endif()

# Keep ${dir} (checkpoint.json is a CI artifact); drop the bulky
# decision streams.
file(REMOVE ${dir}/full.ndjson ${dir}/prefix.ndjson ${dir}/resume.ndjson
            ${dir}/ignore.ndjson)
