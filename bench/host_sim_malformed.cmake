# Run bench_host_simulator (no google-benchmark cases) in DIR next to a
# malformed BENCH_host_sim.json; the run must exit nonzero and leave the
# file byte-for-byte unchanged.
#
#   cmake -DBENCH=<bench_host_simulator> -DDIR=<scratch dir> -P this-file
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(malformed "{\"bench\":\"host_sim\",\"runs\":[{\"label\":\"a\",\"label\":\"b\"}]}\n")
file(WRITE "${DIR}/BENCH_host_sim.json" "${malformed}")

execute_process(COMMAND "${BENCH}" "--benchmark_filter=^$"
                WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE status)
file(READ "${DIR}/BENCH_host_sim.json" after)

if(status EQUAL 0)
  message(FATAL_ERROR "bench_host_simulator exited 0 on a malformed file")
endif()
if(NOT after STREQUAL malformed)
  message(FATAL_ERROR "bench_host_simulator rewrote the malformed file")
endif()
