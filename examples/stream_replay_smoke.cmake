# Smoke test for the stream_replay example, run by ctest as
#   cmake -DEXE=<stream_replay> -DWORK_DIR=<scratch dir> -P stream_replay_smoke.cmake
# Both runs happen in a fresh WORK_DIR, so the demo trace and the timeline
# stay out of the source and build trees: the demo mode must exit 0, and a
# --chrome-trace run must exit 0 and write a JSON array.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${EXE}" WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE demo_status)
if(NOT demo_status EQUAL 0)
  message(FATAL_ERROR "stream_replay (demo mode) exited with ${demo_status}")
endif()

execute_process(COMMAND "${EXE}" --chrome-trace "${WORK_DIR}/t.json"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE trace_status)
if(NOT trace_status EQUAL 0)
  message(FATAL_ERROR "stream_replay --chrome-trace exited with ${trace_status}")
endif()
if(NOT EXISTS "${WORK_DIR}/t.json")
  message(FATAL_ERROR "stream_replay --chrome-trace wrote no timeline")
endif()
file(READ "${WORK_DIR}/t.json" first_byte LIMIT 1 HEX)
if(NOT first_byte STREQUAL "5b")
  message(FATAL_ERROR "timeline starts with byte 0x${first_byte}, expected '['")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
