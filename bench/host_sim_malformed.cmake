# Run tools/host_ladder.py with --root DIR next to a malformed
# BENCH_host_sim.json (a repeated key); the run must exit nonzero, name the
# repeated key, and leave the file byte-for-byte unchanged.
#
#   cmake -DTOOL=<tools/host_ladder.py> -DDIR=<scratch dir> -P this-file
find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(FATAL_ERROR "python3 not found")
endif()
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(malformed "{\"bench\":\"host_sim\",\"runs\":[{\"label\":\"a\",\"label\":\"b\"}]}\n")
file(WRITE "${DIR}/BENCH_host_sim.json" "${malformed}")

execute_process(COMMAND "${PYTHON3}" "${TOOL}" --root "${DIR}"
                RESULT_VARIABLE status
                ERROR_VARIABLE err)
file(READ "${DIR}/BENCH_host_sim.json" after)

if(status EQUAL 0)
  message(FATAL_ERROR "host_ladder.py exited 0 on a malformed file")
endif()
if(NOT err MATCHES "duplicate JSON key 'label'")
  message(FATAL_ERROR "host_ladder.py did not reject the repeated key: ${err}")
endif()
if(NOT after STREQUAL malformed)
  message(FATAL_ERROR "host_ladder.py rewrote the malformed file")
endif()
