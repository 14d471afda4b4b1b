# Telemetry schema gate (ctest): a short --telemetry run must produce a
# per-epoch metrics JSONL, a Perfetto-loadable trace, and a decision log
# that all pass `ndpext_report check`, and the summary/diff subcommands
# must run cleanly against them. Invoked with -DSIM=... -DREPORT=...
# -DOUT_DIR=... (see tests/CMakeLists.txt).

file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(
    COMMAND ${SIM} --workload=pr --accesses=2000 --epoch=50000
            --telemetry=${OUT_DIR}/run --telemetry-sample=16
            --stats-json=${OUT_DIR}/run.stats.json
    RESULT_VARIABLE sim_rc
    OUTPUT_QUIET)
if(NOT sim_rc EQUAL 0)
    message(FATAL_ERROR "ndpext_sim --telemetry failed (rc=${sim_rc})")
endif()

foreach(suffix metrics.jsonl trace.json decisions.jsonl)
    if(NOT EXISTS ${OUT_DIR}/run.${suffix})
        message(FATAL_ERROR "missing telemetry file run.${suffix}")
    endif()
endforeach()

execute_process(
    COMMAND ${REPORT} check ${OUT_DIR}/run
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "ndpext_report check failed: ${check_out}${check_err}")
endif()

execute_process(
    COMMAND ${REPORT} summary ${OUT_DIR}/run
    RESULT_VARIABLE summary_rc
    OUTPUT_VARIABLE summary_out)
if(NOT summary_rc EQUAL 0)
    message(FATAL_ERROR "ndpext_report summary failed")
endif()
# The run takes at least the initial placement decision, so the solver
# section must print; it is dropped silently if its counter names do
# not resolve in metrics.jsonl.
string(FIND "${summary_out}" "placement solver:" solver_pos)
if(solver_pos EQUAL -1)
    message(FATAL_ERROR
        "ndpext_report summary has no placement solver section:\n"
        "${summary_out}")
endif()

execute_process(
    COMMAND ${REPORT} diff ${OUT_DIR}/run ${OUT_DIR}/run
    RESULT_VARIABLE diff_rc
    OUTPUT_QUIET)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "ndpext_report diff failed")
endif()
