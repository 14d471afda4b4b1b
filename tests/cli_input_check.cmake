# CLI input gate (ctest): every input below once panicked, hung, ran on a
# silently wrapped value or read a different number than the user typed.
# Each must now end within seconds with the expected exit status (2 for a
# malformed flag, 1 for an invalid configuration) and a one-line
# diagnostic on stderr that names the flag, key or file:line, and never
# a panic. Invoked with -DSIM=... -DSUPERVISE=... -DOUT_DIR=... (see
# tests/CMakeLists.txt).

file(MAKE_DIRECTORY ${OUT_DIR})

# Seconds one run may take; a valid run of these sizes takes under one.
set(run_timeout 20)

# A small serving run each tenant row extends with one more key.
set(serving --stacks=2x1 --units=2x2 --horizon=2M)
set(tenant --tenant=name=a,workload=pr,period=14000,slo=60000,footprint-mb=4)

file(WRITE ${OUT_DIR}/negative_compute.trace
     "stream s affine 0x100000 16384 4 ro\na 0 0 0 r -5\n")
file(WRITE ${OUT_DIR}/ragged_stream.trace
     "stream s affine 0x100000 16385 4 ro\na 0 0 0 r\n")

set(failures "")

# expect_rejected(<exit status> <diagnostic substring> <args...>) runs
# ${tool}, whose diagnostics start with ${diag_start}.
set(tool ${SIM})
set(diag_start "ndpext_sim: ")
function(expect_rejected want_rc want_text)
    execute_process(
        COMMAND ${tool} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT ${run_timeout})
    string(FIND "${err}" "\n" eol)
    string(SUBSTRING "${err}" 0 ${eol} first)
    string(FIND "${first}" "${diag_start}" start)
    set(why "")
    if(NOT rc STREQUAL want_rc)
        set(why "exit status '${rc}', want ${want_rc}")
    elseif(NOT start EQUAL 0)
        set(why "stderr does not start with a diagnostic")
    elseif(err MATCHES "panic")
        set(why "stderr reports a panic")
    else()
        string(FIND "${first}" "${want_text}" pos)
        if(pos EQUAL -1)
            set(why "diagnostic lacks '${want_text}'")
        endif()
    endif()
    if(why)
        set(failures "${failures}\n  ${ARGN}: ${why}\n    ${first}"
            PARENT_SCOPE)
    endif()
endfunction()

# Memory-backend tunables: checked against each tunable's range, and the
# refresh backend's tREFI > tRFC rule, by SystemConfig::validate.
expect_rejected(1 "queue=0 must be an integer"
    --accesses=100 --mem-backend.unit=frfcfs,queue=0)
expect_rejected(1 "queue=-5 must be an integer"
    --accesses=100 --mem-backend.unit=frfcfs,queue=-5)
expect_rejected(1 "refi must exceed rfc"
    --accesses=100 --mem-backend.unit=refresh,refi=1,rfc=5)

# Arrival tunables that made the arrival process loop forever.
expect_rejected(1 "amp=-1.5 must be"
    ${serving} ${tenant},arrival=diurnal,amp=-1.5)
expect_rejected(1 "day-cycles=0 must be"
    ${serving} ${tenant},arrival=diurnal,day-cycles=0)
expect_rejected(1 "burst-cycles=0 must be"
    ${serving} ${tenant},arrival=bursty,burst-cycles=0)

# Ids and cycle counts that wrapped where they are stored.
expect_rejected(2 "bad unit id '4294967301'"
    --accesses=100 --fault=unit:4294967301@5K)
expect_rejected(2 "bad stack id '536870912'"
    --accesses=100 --fault=stack:536870912@1K)
expect_rejected(2 "bad cycle '18446744073709552K'"
    --accesses=100 --fault=unit:3@18446744073709552K)
expect_rejected(2 "bad --horizon"
    ${serving} ${tenant} --horizon=18446744073709552K)
expect_rejected(2 "req expects an integer"
    ${serving} ${tenant},req=4294967297)
expect_rejected(2 "slo expects an integer"
    ${serving}
    --tenant=name=a,workload=pr,period=14000,slo=1e30,footprint-mb=4)
expect_rejected(2 "bad --cache-kb"
    --accesses=100 --cache-kb=18014398509481985)
expect_rejected(1 "32-bit unit id"
    --accesses=100 --stacks=1024x1024 --units=1024x5)

# A key given twice in one spec: --tenant kept the first value,
# --mem-backend the last.
expect_rejected(2 "key 'burst-factor' is given twice"
    ${serving} ${tenant},arrival=bursty,burst-factor=4,burst-factor=6)
expect_rejected(2 "key 'queue' is given twice"
    --accesses=100 --mem-backend.unit=frfcfs,queue=4,queue=16)

# Trace fields: a file:line diagnostic instead of a wrapped compute count
# or a panic in StreamConfig::dense.
expect_rejected(2 "negative_compute.trace:2: bad computeCycles '-5'"
    --trace=${OUT_DIR}/negative_compute.trace)
expect_rejected(2 "ragged_stream.trace:1: bad stream geometry"
    --trace=${OUT_DIR}/ragged_stream.trace)

# Supervisor deadlines past the steady clock's range wrapped into the
# past and SIGKILLed every attempt at once.
# The supervisor names itself by the path it was started as.
set(tool ${SUPERVISE})
set(diag_start "${SUPERVISE}: ")
expect_rejected(2 "bad value for --kill-after-ms: '10000000000000'"
    --kill-after-ms=10000000000000 --checkpoint=${OUT_DIR}/ck --
    ${SIM} --accesses=100)
expect_rejected(2 "bad value for --hang-after-ms: '10000000000000'"
    --hang-after-ms=10000000000000 --checkpoint=${OUT_DIR}/ck --
    ${SIM} --accesses=100)

if(failures)
    message(FATAL_ERROR "the CLI tools mishandled bad input:${failures}")
endif()
