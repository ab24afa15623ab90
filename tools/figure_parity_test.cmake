# `dqctl figure` is an alias for the catalogue scenario that defines the
# figure: its CSV must equal, byte for byte, the file `dqctl campaign
# run` writes for the same figure.
set(workdir ${CMAKE_CURRENT_BINARY_DIR}/dqctl_figure_parity)
file(REMOVE_RECURSE ${workdir})
file(MAKE_DIRECTORY ${workdir})

execute_process(COMMAND ${DQCTL} figure fig4 --quick --csv
                OUTPUT_FILE ${workdir}/figure.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl figure fig4 failed: ${rc}")
endif()
execute_process(COMMAND ${DQCTL} campaign run fig04 --quick --no-cache --csv
                        --out ${workdir}/campaign
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl campaign run fig04 failed: ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${workdir}/figure.csv ${workdir}/campaign/fig4.csv
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "dqctl figure fig4 and dqctl campaign run fig04 "
                      "wrote different CSV")
endif()
file(REMOVE_RECURSE ${workdir})
