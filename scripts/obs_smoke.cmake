# ctest driver for the observability smoke gates (trace_smoke,
# timeline_smoke, mrc_smoke): runs a bench with the flag that writes one
# plane's ape.obs.v1 / Perfetto export, then re-validates the file *offline*
# with that plane's report tool --validate — an independent
# re-implementation of the plane's invariants, so a bug in the C++ side
# can't vouch for itself.  An optional expectations file additionally pins
# the run's shape.  Invoked as:
#
#   cmake -DBENCH=<bench binary> -DFLAG=<--trace-out|--timeline-out|...> \
#         -DPYTHON=... -DREPORT=<tools/*_report.py> -DOUT=<export path> \
#         [-DEXPECT=<expectations.json>] -P scripts/obs_smoke.cmake
#
# Fails (FATAL_ERROR) when the bench's in-process gates, the export write,
# or the offline validation fails.

foreach(var BENCH FLAG PYTHON REPORT OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "obs_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} ${FLAG} ${OUT}
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${FLAG} failed (rc=${bench_rc}): "
                      "the bench's in-process gate rejected the run")
endif()

set(expect_args "")
if(DEFINED EXPECT)
  set(expect_args --expect ${EXPECT})
endif()
execute_process(
  COMMAND ${PYTHON} ${REPORT} --validate ${expect_args} ${OUT}
  RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "${REPORT} --validate rejected ${OUT} (rc=${validate_rc})")
endif()
